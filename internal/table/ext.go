package table

import "fmt"

// This file is the externally-backed half of the publication contract:
// a table whose dictionary encodings were built elsewhere (typically
// deserialized from a colstore file and pointing into a read-only
// mmap) is constructed with every per-column cache pre-published and
// no raw cells at all. Analyses that run on codes and hashes — the
// study's hot paths — never materialize a single row; the cold
// row-level accessors rebuild the cells from the dictionaries on first
// use.

// EncodingFromParts assembles an Encoding from externally serialized
// parts — the read-only construction path used by the colstore reader.
// The slices are adopted, not copied: the caller must never mutate
// them afterwards (they typically point into a read-only mapping).
// Codes are validated against the dictionary size, since an
// out-of-range code would otherwise panic arbitrarily later; the
// dictionary is trusted to be in ascending byte order with counts and
// hash blocks consistent, which the colstore checksum protects.
func EncodingFromParts(dict []string, codes []uint32, dictCounts []int32, dictNull []bool, hashes []uint64, hashCounts []int32) (*Encoding, error) {
	if len(dictCounts) != len(dict) || len(dictNull) != len(dict) {
		return nil, fmt.Errorf("table: encoding parts disagree: %d dict entries, %d counts, %d null flags",
			len(dict), len(dictCounts), len(dictNull))
	}
	if len(hashCounts) != len(hashes) {
		return nil, fmt.Errorf("table: encoding parts disagree: %d hashes, %d hash counts", len(hashes), len(hashCounts))
	}
	n := uint32(len(dict))
	for r, c := range codes {
		if c >= n {
			return nil, fmt.Errorf("table: code %d at row %d out of dictionary range [0, %d)", c, r, n)
		}
	}
	e := &Encoding{
		Dict:       dict,
		Codes:      codes,
		DictCounts: dictCounts,
		DictNull:   dictNull,
		hashes:     hashes,
		hashCounts: hashCounts,
	}
	for i, null := range dictNull {
		if null {
			e.nulls += int(dictCounts[i])
		}
	}
	return e, nil
}

// FromEncodings constructs a table directly from pre-built column
// encodings, one per column. The encodings are published into the
// table's caches at construction — before any reader can exist, so the
// stores need no build mutex (the still-private half of the
// publication protocol) — and the cells stay nil until a row-level
// accessor materializes them. Row counts must agree across columns.
func FromEncodings(name string, cols []string, encs []*Encoding) (*Table, error) {
	if len(cols) != len(encs) {
		return nil, fmt.Errorf("table: %s: %d columns, %d encodings", name, len(cols), len(encs))
	}
	rows := 0
	if len(encs) > 0 {
		rows = len(encs[0].Codes)
	}
	for i, e := range encs {
		if e == nil {
			return nil, fmt.Errorf("table: %s: nil encoding for column %d", name, i)
		}
		if len(e.Codes) != rows {
			return nil, fmt.Errorf("table: %s: column %d has %d rows, column 0 has %d", name, i, len(e.Codes), rows)
		}
	}
	t := newTable(name, cols, nil, rows, encs, nil)
	t.ext.Store(true)
	return t, nil
}

// Encoded reports whether the table is encoding-backed and has not
// materialized its raw cells yet.
func (t *Table) Encoded() bool { return t.ext.Load() }

// data returns the raw cell columns, materializing them from the
// dictionary encodings first when the table is encoding-backed. The
// fast path for ordinary tables is one atomic load.
func (t *Table) data() [][]string {
	if !t.ext.Load() {
		return t.cells
	}
	t.materializeCells()
	return t.cells
}

// materializeCells rebuilds the cells from the published encodings,
// exactly once. The cells are fully built before the ext flag flips, so
// concurrent readers either see the nil cells (and come here) or the
// complete materialization — never a partial one.
func (t *Table) materializeCells() {
	t.dataMu.Lock()
	defer t.dataMu.Unlock()
	if !t.ext.Load() {
		return
	}
	d := make([][]string, len(t.Cols))
	for c := range t.Cols {
		e := t.slots[c].enc.Load()
		col := make([]string, len(e.Codes))
		for r, code := range e.Codes {
			col[r] = e.Dict[code]
		}
		d[c] = col
	}
	t.cells = d
	t.ext.Store(false)
}
