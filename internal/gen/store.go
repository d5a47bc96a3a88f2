package gen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"ogdp/internal/ckan"
	"ogdp/internal/colstore"
	"ogdp/internal/corpus"
	"ogdp/internal/csvio"
	"ogdp/internal/parallel"
	"ogdp/internal/table"
)

// On-disk corpus layout: one CSV file per table, a datasets.json
// manifest (dataset ids, titles, publication dates, metadata styles —
// enough for the generic diskcorpus loader), and a provenance.json
// recording the full generation provenance (styles, topics, column
// roles, entity pools). LoadCorpus reconstructs a *Corpus from the
// provenance that is analysis-equivalent to the generated original:
// running the study over it yields the identical PortalResult.
const (
	// ManifestFile is the generic dataset manifest read by diskcorpus.
	ManifestFile = "datasets.json"
	// ProvenanceFile is the full-provenance manifest read by LoadCorpus.
	ProvenanceFile = "provenance.json"
)

// ManifestDataset is one datasets.json entry.
type ManifestDataset struct {
	ID        string    `json:"id"`
	Title     string    `json:"title"`
	Category  string    `json:"category"`
	Published time.Time `json:"published"`
	Metadata  string    `json:"metadata_style"`
	Tables    []string  `json:"tables"`
}

// provCorpus is the provenance.json schema.
type provCorpus struct {
	Portal   string        `json:"portal"`
	Profile  string        `json:"profile"`
	Datasets []provDataset `json:"datasets"`
	Tables   []provTable   `json:"tables"`
}

type provDataset struct {
	ID        string    `json:"id"`
	Title     string    `json:"title"`
	Category  string    `json:"category"`
	Published time.Time `json:"published"`
	Metadata  int       `json:"metadata_style"`
}

type provTable struct {
	File         string    `json:"file"`
	Dataset      string    `json:"dataset"`
	DatasetTitle string    `json:"dataset_title"`
	Topic        string    `json:"topic"`
	Category     string    `json:"category"`
	Style        int       `json:"style"`
	EventClass   string    `json:"event_class,omitempty"`
	DuplicateOf  string    `json:"duplicate_of,omitempty"`
	Published    time.Time `json:"published"`
	RawSize      int64     `json:"raw_size"`
	// ContentHash is the FNV-64a hash (hex) of the table's CSV bytes;
	// ingest delta detection compares it instead of parsing the file,
	// and the colstore loader rejects stale .col files against it.
	ContentHash string `json:"content_hash,omitempty"`
	// Colstore names the binary columnar serialization written
	// alongside the CSV, when one exists.
	Colstore string    `json:"colstore,omitempty"`
	Cols     []provCol `json:"cols"`
}

type provCol struct {
	Name string `json:"name"`
	Role int    `json:"role"`
	Pool string `json:"pool,omitempty"`
}

// SaveStats summarizes what SaveCorpus wrote.
type SaveStats struct {
	Datasets int
	Tables   int
	Bytes    int64 // raw CSV bytes
	ColBytes int64 // colstore (binary columnar) bytes
}

// SaveCorpus writes a corpus to dir: one CSV plus one colstore file
// per table, and the datasets.json and provenance.json manifests. The
// directory is created if needed. Every file is written via temp file
// + rename so a crash mid-save never leaves a partially written file,
// and the manifests are fsynced — an interrupted save is either
// invisible (old manifests still describe the old files) or complete.
// Table serialization fans out over the worker pool; manifest order is
// the deterministic Metas order regardless of worker scheduling.
func SaveCorpus(dir string, c *Corpus) (SaveStats, error) {
	var st SaveStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return st, err
	}

	type tableFiles struct {
		csvBytes int64
		colBytes int64
		hash     uint64
		err      error
	}
	ctx := parallel.WithPool(context.Background(), "gen/save")
	written := parallel.MustMap(parallel.Map(ctx, len(c.Metas), 0, func(i int) tableFiles {
		m := c.Metas[i]
		body := csvio.Bytes(m.Table)
		hash := colstore.HashBytes(body)
		if err := colstore.AtomicWrite(filepath.Join(dir, m.Table.Name), body, false); err != nil {
			return tableFiles{err: err}
		}
		n, err := colstore.WriteFile(filepath.Join(dir, m.Table.Name+colstore.Ext), m.Table, hash)
		if err != nil {
			return tableFiles{err: err}
		}
		return tableFiles{csvBytes: int64(len(body)), colBytes: n, hash: hash}
	}))

	byDataset := map[string][]string{}
	prov := provCorpus{Portal: c.PortalName, Profile: c.Profile.Name}
	for i, m := range c.Metas {
		w := written[i]
		if w.err != nil {
			return st, fmt.Errorf("gen: saving %s: %w", m.Table.Name, w.err)
		}
		byDataset[m.Dataset] = append(byDataset[m.Dataset], m.Table.Name)
		st.Tables++
		st.Bytes += w.csvBytes
		st.ColBytes += w.colBytes

		pt := provTable{
			File:         m.Table.Name,
			Dataset:      m.Dataset,
			DatasetTitle: m.DatasetTitle,
			Topic:        m.Topic,
			Category:     m.Category,
			Style:        int(m.Style),
			EventClass:   m.EventClass,
			DuplicateOf:  m.DuplicateOf,
			Published:    m.Published,
			RawSize:      m.RawSize,
			ContentHash:  formatHash(w.hash),
			Colstore:     m.Table.Name + colstore.Ext,
		}
		for _, ci := range m.Cols {
			pt.Cols = append(pt.Cols, provCol{Name: ci.Name, Role: int(ci.Role), Pool: ci.Pool})
		}
		prov.Tables = append(prov.Tables, pt)
	}

	manifest := make([]ManifestDataset, 0, len(c.Datasets))
	for _, d := range c.Datasets {
		manifest = append(manifest, ManifestDataset{
			ID:        d.ID,
			Title:     d.Title,
			Category:  d.Category,
			Published: d.Published,
			Metadata:  ckan.MetadataStyle(d.Metadata).String(),
			Tables:    byDataset[d.ID],
		})
		prov.Datasets = append(prov.Datasets, provDataset{
			ID:        d.ID,
			Title:     d.Title,
			Category:  d.Category,
			Published: d.Published,
			Metadata:  d.Metadata,
		})
	}
	st.Datasets = len(manifest)

	if err := writeJSON(filepath.Join(dir, ManifestFile), manifest); err != nil {
		return st, err
	}
	if err := writeJSON(filepath.Join(dir, ProvenanceFile), prov); err != nil {
		return st, err
	}
	return st, nil
}

// writeJSON atomically writes an indented, fsynced JSON manifest: the
// manifests are the corpus's commit record, so they must hit disk
// before the rename makes them visible.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return colstore.AtomicWrite(path, append(data, '\n'), true)
}

// formatHash renders a content hash the way provenance.json stores it.
func formatHash(h uint64) string { return fmt.Sprintf("%016x", h) }

// parseHash parses a provenance content hash; ok is false for empty or
// malformed values.
func parseHash(s string) (h uint64, ok bool) {
	h, err := strconv.ParseUint(s, 16, 64)
	return h, err == nil && s != ""
}

// LoadCorpusNotes reads a corpus saved by SaveCorpus back from dir,
// reconstructing the full generation provenance from provenance.json.
// Tables are served from their colstore files when present, current
// (content hash matches the provenance), and intact — the encodings
// then alias a read-only mapping and no rows are materialized. A
// missing, stale, or corrupt colstore falls back to re-parsing the CSV
// with the cleaning pipeline disabled (KeepEmptyTrailingColumns, no
// wide-table cutoff) so the cells roundtrip exactly; each fallback is
// reported as a corpus.Skip. Either way the result is
// analysis-equivalent to the corpus that was saved.
func LoadCorpusNotes(dir string) (*Corpus, []corpus.Skip, error) {
	data, err := os.ReadFile(filepath.Join(dir, ProvenanceFile))
	if err != nil {
		return nil, nil, fmt.Errorf("gen: loading corpus: %w", err)
	}
	var prov provCorpus
	if err := json.Unmarshal(data, &prov); err != nil {
		return nil, nil, fmt.Errorf("gen: parsing %s: %w", ProvenanceFile, err)
	}

	c := &Corpus{PortalName: prov.Portal}
	if p, ok := ProfileByName(prov.Profile); ok {
		c.Profile = p
	}
	for _, d := range prov.Datasets {
		c.Datasets = append(c.Datasets, DatasetMeta{
			ID:        d.ID,
			Title:     d.Title,
			Category:  d.Category,
			Published: d.Published,
			Metadata:  d.Metadata,
		})
	}
	var notes []corpus.Skip
	for _, pt := range prov.Tables {
		t, note, err := loadProvTable(dir, &pt)
		if err != nil {
			return nil, notes, err
		}
		if note != "" {
			notes = append(notes, corpus.Skip{Name: pt.File, Reason: note})
		}
		t.DatasetID = pt.Dataset
		if got, want := t.NumCols(), len(pt.Cols); got != want {
			return nil, notes, fmt.Errorf("gen: %s: %d columns on disk, %d in provenance", pt.File, got, want)
		}
		m := &TableMeta{
			Table:        t,
			Dataset:      pt.Dataset,
			DatasetTitle: pt.DatasetTitle,
			Topic:        pt.Topic,
			Category:     pt.Category,
			Style:        TableStyle(pt.Style),
			EventClass:   pt.EventClass,
			DuplicateOf:  pt.DuplicateOf,
			Published:    pt.Published,
			RawSize:      pt.RawSize,
		}
		for _, pc := range pt.Cols {
			m.Cols = append(m.Cols, ColumnInfo{Name: pc.Name, Role: ColumnRole(pc.Role), Pool: pc.Pool})
		}
		c.Metas = append(c.Metas, m)
	}
	return c, notes, nil
}

// loadProvTable loads one table, preferring its colstore serialization
// and falling back to CSV re-parsing with a non-empty reason when the
// colstore is absent, stale, or fails validation. A fallback whose CSV
// is also unreadable is an error: the manifest references data the
// corpus no longer has.
func loadProvTable(dir string, pt *provTable) (t *table.Table, note string, err error) {
	if pt.Colstore != "" {
		t, hash, err := colstore.Load(filepath.Join(dir, pt.Colstore))
		want, ok := parseHash(pt.ContentHash)
		switch {
		case err != nil:
			note = fmt.Sprintf("colstore unusable (%v); re-parsed CSV", err)
		case !ok:
			note = "colstore ignored: provenance content_hash missing or malformed; re-parsed CSV"
		case hash != want:
			note = fmt.Sprintf("colstore stale: stamped content hash %016x, provenance has %s; re-parsed CSV", hash, pt.ContentHash)
		default:
			return t, "", nil
		}
	}
	t, err = loadTable(dir, pt.File)
	if err != nil && note != "" {
		err = fmt.Errorf("%w (after: %s)", err, note)
	}
	return t, note, err
}

// loadTable reparses one saved table without the cleaning pipeline:
// the file was written by csvio.Write from an already-clean table, so
// header inference must not rename columns, drop all-null trailing
// columns, or reject wide tables.
func loadTable(dir, file string) (*table.Table, error) {
	body, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		return nil, fmt.Errorf("gen: loading corpus table: %w", err)
	}
	t, err := csvio.ReadWith(file, bytes.NewReader(body), csvio.Options{
		KeepEmptyTrailingColumns: true,
		MaxColumns:               -1,
	})
	if err != nil {
		return nil, fmt.Errorf("gen: parsing %s: %w", file, err)
	}
	return t, nil
}
