// Package corpus defines the storage-agnostic interface between a
// corpus of tables and the study pipeline. The paper's analyses only
// need three things from a corpus — a portal identifier, the tables
// with their dataset attribution, and the dataset records — so that is
// the whole interface. Both the synthetic generator (gen.Corpus) and
// the on-disk loader (diskcorpus.Corpus) implement Source, which lets
// core.RunPortal execute the identical study over a generated portal
// or a directory of CSV files.
//
// Optional capabilities (a provenance oracle for §5.3 labeling, a
// servable CKAN portal for the Table 1 funnel) are discovered by type
// assertion in core, not declared here: a corpus that cannot provide
// them still supports every structural analysis.
package corpus

import (
	"time"

	"ogdp/internal/table"
)

// TableMeta is one corpus table with the dataset-level facts the
// study needs. It deliberately carries no generation provenance —
// provenance-dependent analyses (oracle labeling, planted-FK
// recovery) live behind optional capabilities of the concrete type.
type TableMeta struct {
	// Table is the parsed table.
	Table *table.Table
	// DatasetID attributes the table to its dataset ("" when unknown).
	DatasetID string
	// Published is the dataset publication date (zero when unknown).
	Published time.Time
	// RawSize is the size of the table serialized as CSV, in bytes.
	RawSize int64
	// Metadata is the dataset's dictionary style
	// (ckan.MetadataStyle as int; drives Table 3).
	Metadata int
}

// Dataset is one dataset record.
type Dataset struct {
	ID        string
	Title     string
	Category  string
	Published time.Time
	// Metadata is the dictionary style (ckan.MetadataStyle as int).
	Metadata int
}

// Skip records one input file a loader passed over or fell back on,
// and why: a file that could not be read or parsed, or a colstore file
// passed over for its CSV. A long-lived service cannot afford a bare
// counter: when a corpus loads with 40 of 200 files missing, the
// operator needs the names and reasons at startup, not a number. Both
// corpus loaders (gen.LoadCorpusNotes and diskcorpus) report in this
// one form.
type Skip struct {
	// Name is the file name within the corpus directory.
	Name string
	// Reason says why the file was passed over ("read: ...",
	// "undetected format ...", "csv: ...", "too wide ...", ...).
	Reason string
}

func (s Skip) String() string { return s.Name + ": " + s.Reason }

// Source is a corpus the study can run over. Implementations must
// return the same slices (same order, same contents) on every call:
// analysis indices are positions in TableMetas, and the determinism
// contract of core depends on a stable order.
type Source interface {
	// PortalID names the corpus (the portal code for generated
	// corpora, the directory name for on-disk ones).
	PortalID() string
	// TableMetas lists the corpus tables in canonical order.
	TableMetas() []TableMeta
	// DatasetMetas lists the dataset records.
	DatasetMetas() []Dataset
}

// Tables projects a source to its bare tables, in TableMetas order;
// analysis indices line up with TableMetas indices.
func Tables(s Source) []*table.Table {
	metas := s.TableMetas()
	out := make([]*table.Table, len(metas))
	for i, m := range metas {
		out[i] = m.Table
	}
	return out
}
