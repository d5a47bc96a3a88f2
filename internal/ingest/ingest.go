// Package ingest implements incremental corpus maintenance: delta
// detection between a saved corpus and a fresh snapshot of its tables,
// committing the delta to the corpus directory, and projecting it into
// a query.Delta so a live service patches its indexes in place instead
// of rebuilding.
//
// Detection is hash-only: the saved corpus's provenance manifest
// carries each table's CSV content hash, so deciding what changed
// costs one file read and one FNV pass per snapshot table — no
// parsing. Only the added and updated tables are parsed and
// re-profiled; work is proportional to the delta, never the corpus.
package ingest

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ogdp/internal/colstore"
	"ogdp/internal/corpus"
	"ogdp/internal/csvio"
	"ogdp/internal/gen"
	"ogdp/internal/query"
	"ogdp/internal/table"
)

// Change is one added or updated table in a detected plan.
type Change struct {
	// Name is the table file name.
	Name string
	// Body is the snapshot's exact CSV bytes (stored verbatim).
	Body []byte
	// Hash is the FNV-64a content hash of Body.
	Hash uint64
	// Table is the parsed revision.
	Table *table.Table
	// DatasetID and Published carry the dataset attribution of the
	// table being revised (zero for added tables, which have none).
	DatasetID string
	Published time.Time
}

// Plan is the detected delta between a saved corpus and a snapshot
// directory: what to add, update, and delete to make the corpus match
// the snapshot.
type Plan struct {
	// Portal is the corpus's portal id.
	Portal string
	// Added are snapshot tables the corpus lacks, in file-name order.
	Added []Change
	// Updated are corpus tables whose snapshot bytes hash differently,
	// in provenance order.
	Updated []Change
	// Deleted are corpus tables absent from the snapshot, in
	// provenance order.
	Deleted []string
	// Unchanged counts the tables whose content hash matched.
	Unchanged int
}

// Empty reports whether the plan changes nothing.
func (p *Plan) Empty() bool {
	return len(p.Added) == 0 && len(p.Updated) == 0 && len(p.Deleted) == 0
}

// Summary renders the plan in one line.
func (p *Plan) Summary() string {
	return fmt.Sprintf("%d added, %d updated, %d deleted, %d unchanged",
		len(p.Added), len(p.Updated), len(p.Deleted), p.Unchanged)
}

// Detect compares a saved corpus against a snapshot directory holding
// the corpus's new table set (every *.csv in snapshotDir is the new
// truth: a corpus table with no snapshot file counts as deleted). Only
// tables whose content hash changed are parsed.
func Detect(corpusDir, snapshotDir string) (*Plan, error) {
	dig, err := gen.Digest(corpusDir)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	entries, err := os.ReadDir(snapshotDir)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".csv") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)

	p := &Plan{Portal: dig.Portal}
	inSnapshot := make(map[string]bool, len(names))
	updated := make(map[string]Change)
	for _, name := range names {
		inSnapshot[name] = true
		body, err := os.ReadFile(filepath.Join(snapshotDir, name))
		if err != nil {
			return nil, fmt.Errorf("ingest: %w", err)
		}
		hash := colstore.HashBytes(body)
		old, known := dig.Hash[name]
		_, exists := dig.Dataset[name]
		if exists && known && old == hash {
			p.Unchanged++
			continue
		}
		t, err := parseSnapshot(name, body)
		if err != nil {
			return nil, err
		}
		ch := Change{Name: name, Body: body, Hash: hash, Table: t}
		if exists {
			ch.DatasetID = dig.Dataset[name]
			ch.Published = dig.Published[name]
			t.DatasetID = ch.DatasetID
			updated[name] = ch
		} else {
			p.Added = append(p.Added, ch)
		}
	}
	// Updated and Deleted in provenance order, so applying the plan
	// preserves the manifest's relative table order — which is what
	// makes a patched live service order results identically to a
	// from-scratch rebuild of the patched corpus.
	for _, f := range dig.Files {
		if ch, ok := updated[f]; ok {
			p.Updated = append(p.Updated, ch)
		}
		if !inSnapshot[f] {
			p.Deleted = append(p.Deleted, f)
		}
	}
	return p, nil
}

// parseSnapshot parses one snapshot CSV exactly the way gen's CSV
// fallback re-parses saved tables (no cleaning pipeline), so a table
// loaded later from its colstore file or from its stored CSV is
// cell-identical to the one ingested here.
func parseSnapshot(name string, body []byte) (*table.Table, error) {
	t, err := csvio.ReadWith(name, bytes.NewReader(body), csvio.Options{
		KeepEmptyTrailingColumns: true,
		MaxColumns:               -1,
	})
	if err != nil {
		return nil, fmt.Errorf("ingest: parsing %s: %w", name, err)
	}
	return t, nil
}

// Apply commits the plan to the corpus directory (see gen.PatchCorpus
// for the atomicity guarantees).
func Apply(corpusDir string, p *Plan) error {
	conv := func(chs []Change) []gen.IngestTable {
		out := make([]gen.IngestTable, len(chs))
		for i, ch := range chs {
			out[i] = gen.IngestTable{Table: ch.Table, Body: ch.Body, Hash: ch.Hash}
		}
		return out
	}
	if err := gen.PatchCorpus(corpusDir, conv(p.Added), conv(p.Updated), p.Deleted); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	return nil
}

// QueryDelta projects the plan into a query.Delta, for patching a live
// query.Service over the same corpus in place.
func QueryDelta(p *Plan) query.Delta {
	meta := func(ch Change) corpus.TableMeta {
		return corpus.TableMeta{
			Table:     ch.Table,
			DatasetID: ch.DatasetID,
			Published: ch.Published,
			RawSize:   int64(len(ch.Body)),
		}
	}
	var d query.Delta
	for _, ch := range p.Added {
		d.Added = append(d.Added, meta(ch))
	}
	for _, ch := range p.Updated {
		d.Updated = append(d.Updated, meta(ch))
	}
	d.Deleted = append(d.Deleted, p.Deleted...)
	return d
}
