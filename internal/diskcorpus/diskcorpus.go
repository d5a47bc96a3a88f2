package diskcorpus

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ogdp/internal/corpus"
	"ogdp/internal/csvio"
	"ogdp/internal/gen"
	"ogdp/internal/sniff"
	"ogdp/internal/table"
)

// Corpus is a loaded directory of tables.
type Corpus struct {
	// Dir is the source directory.
	Dir string
	// Tables are the readable tables, sorted by file name.
	Tables []*table.Table
	// Metas carries per-table corpus facts (dataset attribution,
	// publication date, raw size), parallel to Tables.
	Metas []corpus.TableMeta
	// Datasets are the dataset records from the manifest (nil without
	// one).
	Datasets []corpus.Dataset
	// Skips is the per-file skip ledger, in file-name order: every
	// file that failed reading, sniffing or parsing (including
	// wide-table rejections), plus a malformed datasets.json, each with
	// its reason.
	Skips []corpus.Skip
	// Manifest reports whether a datasets.json manifest was found and
	// parsed.
	Manifest bool
}

// PortalID implements corpus.Source: the directory base name.
func (c *Corpus) PortalID() string { return filepath.Base(c.Dir) }

// TableMetas implements corpus.Source.
func (c *Corpus) TableMetas() []corpus.TableMeta { return c.Metas }

// DatasetMetas implements corpus.Source.
func (c *Corpus) DatasetMetas() []corpus.Dataset { return c.Datasets }

// ByName returns the index of the table with the given file name, or
// -1.
func (c *Corpus) ByName(name string) int {
	for i, t := range c.Tables {
		if t.Name == name {
			return i
		}
	}
	return -1
}

// Load reads every *.csv file under dir (non-recursive) through the
// cleaning pipeline. It never reads colstore files: a directory that
// has them was written by gen.SaveCorpus, and LoadStudy sends it to
// gen.LoadCorpusNotes, which validates them.
func Load(dir string) (*Corpus, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("diskcorpus: %w", err)
	}
	c := &Corpus{Dir: dir}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".csv") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		body, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			c.Skips = append(c.Skips, corpus.Skip{Name: name, Reason: fmt.Sprintf("read: %v", err)})
			continue
		}
		t, reason := parse(name, body)
		if t == nil {
			c.Skips = append(c.Skips, corpus.Skip{Name: name, Reason: reason})
			continue
		}
		c.Tables = append(c.Tables, t)
		c.Metas = append(c.Metas, corpus.TableMeta{Table: t, RawSize: int64(len(body))})
	}
	if err := c.attachManifest(); err != nil {
		c.Skips = append(c.Skips, corpus.Skip{Name: manifestFile, Reason: err.Error()})
	}
	return c, nil
}

// LoadStudy loads dir as a study-ready corpus source: a directory
// written by ogdpgen/gen.SaveCorpus (recognized by its
// provenance.json) comes back as a full *gen.Corpus — provenance
// oracle and servable funnel portal included — while any other
// directory of CSVs loads through the generic pipeline above.
func LoadStudy(dir string) (corpus.Source, error) {
	src, _, err := LoadStudyNotes(dir)
	return src, err
}

// LoadStudyNotes is LoadStudy with the per-file load deviations
// surfaced: colstore fallbacks and skipped files, in the one
// corpus.Skip ledger form, whichever loader ran. A corpus whose manifests reference tables
// that are missing or unreadable in both representations is rejected
// with a wrapped error.
func LoadStudyNotes(dir string) (corpus.Source, []corpus.Skip, error) {
	if _, err := os.Stat(filepath.Join(dir, gen.ProvenanceFile)); err == nil {
		c, skips, err := gen.LoadCorpusNotes(dir)
		if err != nil {
			return nil, nil, fmt.Errorf("diskcorpus: %s: %w", dir, err)
		}
		return c, skips, nil
	}
	c, err := Load(dir)
	if err != nil {
		return nil, nil, err
	}
	return c, c.Skips, nil
}

// parse runs the sniff/read pipeline. On failure t is nil and reason
// says why. The body is wrapped in a bytes.Reader, not copied through
// a string: with corpora of thousands of CSVs, duplicating every file
// during load doubled the loader's transient footprint for nothing.
func parse(name string, body []byte) (t *table.Table, reason string) {
	format := sniff.Detect(body)
	if !format.IsTabular() {
		return nil, fmt.Sprintf("undetected format (sniffed %s, want csv or tsv)", format)
	}
	opts := csvio.Options{}
	if format == sniff.FormatTSV {
		opts.Comma = '\t'
	}
	parsed, err := csvio.ReadWith(name, bytes.NewReader(body), opts)
	if err != nil {
		if errors.Is(err, csvio.ErrTooWide) {
			return nil, fmt.Sprintf("too wide: %v", err)
		}
		return nil, fmt.Sprintf("csv: %v", err)
	}
	if parsed.NumCols() == 0 || parsed.NumRows() == 0 {
		return nil, "empty after parsing (no rows or no columns)"
	}
	return parsed, ""
}

// manifestDataset mirrors the ogdpgen manifest entry; minimal
// hand-written manifests (id + tables only) parse too.
type manifestDataset struct {
	ID        string    `json:"id"`
	Title     string    `json:"title"`
	Category  string    `json:"category"`
	Published time.Time `json:"published"`
	Metadata  string    `json:"metadata_style"`
	Tables    []string  `json:"tables"`
}

// metadataStyles maps the manifest's style spellings back to
// ckan.MetadataStyle values; unknown spellings mean "lacking".
var metadataStyles = map[string]int{
	"lacking": 0, "structured": 1, "unstructured": 2, "outside": 3,
}

// manifestFile is the dataset manifest ogdpgen writes next to the
// CSVs.
const manifestFile = "datasets.json"

// attachManifest folds datasets.json (when present) into the loaded
// tables: dataset attribution, publication dates, and metadata
// styles. A missing manifest is normal (any directory of CSVs loads
// without one); a present-but-unreadable or malformed one is an error
// for the caller's skip ledger — silently losing all dataset
// attribution used to be indistinguishable from having none.
func (c *Corpus) attachManifest() error {
	data, err := os.ReadFile(filepath.Join(c.Dir, manifestFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("manifest read: %w", err)
	}
	var manifest []manifestDataset
	if err := json.Unmarshal(data, &manifest); err != nil {
		return fmt.Errorf("malformed manifest: %w", err)
	}
	c.Manifest = true
	byName := map[string]*manifestDataset{}
	for i := range manifest {
		d := &manifest[i]
		c.Datasets = append(c.Datasets, corpus.Dataset{
			ID:        d.ID,
			Title:     d.Title,
			Category:  d.Category,
			Published: d.Published,
			Metadata:  metadataStyles[d.Metadata],
		})
		for _, t := range d.Tables {
			byName[t] = d
		}
	}
	for i, t := range c.Tables {
		d, ok := byName[t.Name]
		if !ok {
			continue
		}
		t.DatasetID = d.ID
		c.Metas[i].DatasetID = d.ID
		c.Metas[i].Published = d.Published
		c.Metas[i].Metadata = metadataStyles[d.Metadata]
	}
	return nil
}
