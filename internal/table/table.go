// Package table implements the in-memory relational table model the
// study operates on: columnar storage with a lazily built dictionary
// encoding per column (sorted distinct values, dense uint32 codes),
// cached column profiles (inferred type, null ratio, distinct values,
// uniqueness score), and the projection primitives used by key
// discovery, functional dependency mining, and join analysis: value
// hashes for joins, and exact stripped partitions (Partition) for
// distinct counts and duplicate removal.
//
// Raw strings are kept as the ingest and serialization representation
// (Data); every analysis hot path runs on the encoded form instead and
// recovers raw values through the dictionary. Direct Data access
// outside this package and csvio is flagged by the ogdplint rawdata
// check.
//
// # Concurrency and the publication contract
//
// Every lazy cache (Encoding, ColumnProfile, canonical code stream,
// SchemaKey) follows the same build-once/publish-once protocol:
//
//   - The read path is lock-free: a single atomic pointer load. Once a
//     value has been published, readers never touch a mutex again, so
//     the §4–§6 analyses can hammer the same table from every worker
//     without serializing.
//   - The build path is exactly-once: a goroutine that misses the
//     published pointer takes that column's build lock, re-checks, and
//     either builds-and-publishes or returns the value a racing
//     builder published first. Locks are per column, so building
//     column 3 never blocks a reader (or builder) of column 4.
//   - Published values are immutable. Encoding slices, canonical code
//     streams, and profiles must never be written after the atomic
//     store that publishes them; callers share them freely across
//     goroutines and must treat them as read-only.
//
// Mutation (AppendRow, AppendTable, direct Data writes followed by
// InvalidateProfiles) still must not overlap with any concurrent
// access: invalidation swaps in a fresh cache generation but cannot
// recall values already handed out.
package table

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"ogdp/internal/values"
)

// RaggedCells counts the row-normalization fixes applied while a table
// was ingested: cells dropped from over-long rows and cells invented
// to pad short rows. Both are data-quality signals the profiling layer
// surfaces instead of losing silently.
type RaggedCells struct {
	Truncated int // cells dropped from rows wider than the header
	Padded    int // empty cells appended to rows narrower than the header
}

// Table is a named relational table. Values are stored column-major as
// raw CSV strings; nulls are any value for which values.IsNull is true.
//
// Profile, Profiles, Encoding, CanonCodes, SchemaKey, DistinctCount
// and DistinctRows are safe for concurrent use (lock-free after first
// publication; see the package comment for the publication contract),
// so analyses may share a table across goroutines as long as none of
// them mutates Cols or Data. Mutation (AppendRow, direct Data writes
// plus InvalidateProfiles) must not overlap with any other access.
type Table struct {
	// Name identifies the table (typically the resource file name).
	Name string
	// DatasetID is the identifier of the CKAN dataset the table was
	// published under; empty when the table is free-standing.
	DatasetID string
	// Cols holds the column names, in order.
	Cols []string
	// Data holds the cell values: Data[c][r] is row r of column c.
	// All columns have the same length. For encoding-backed tables
	// (FromEncodings) Data starts nil and is materialized from the
	// dictionaries on first row-level access; always read it through
	// accessors (or data()) so materialization can happen.
	Data [][]string
	// Ragged records cells truncated or padded at ingest time.
	Ragged RaggedCells

	initMu sync.Mutex                 // guards st creation and invalidation
	st     atomic.Pointer[tableState] // current lazy-cache generation

	// ext marks an encoding-backed table whose Data has not been
	// materialized yet (see FromEncodings); extRows carries its row
	// count, since len(Data[0]) is meaningless until materialization.
	ext     atomic.Bool
	extRows int
	dataMu  sync.Mutex // serializes the one Data materialization
}

// tableState is one generation of a table's lazy caches. Invalidation
// publishes a fresh generation instead of clearing slots in place, so
// readers of the old generation keep a consistent view.
type tableState struct {
	cols []colSlot // indexed like Table.Cols

	schemaMu  sync.Mutex // serializes SchemaKey builds
	schemaKey atomic.Pointer[string]
}

// colSlot holds one column's published caches plus the build lock that
// makes each cache exactly-once. The atomic pointers are the only
// fields readers touch after publication.
type colSlot struct {
	mu   sync.Mutex // serializes builds of this column only
	enc  atomic.Pointer[Encoding]
	prof atomic.Pointer[ColumnProfile]
}

// state returns the current cache generation, creating it on first
// use.
func (t *Table) state() *tableState {
	if s := t.st.Load(); s != nil {
		return s
	}
	t.initMu.Lock()
	defer t.initMu.Unlock()
	if s := t.st.Load(); s != nil {
		return s
	}
	s := &tableState{cols: make([]colSlot, len(t.Cols))}
	t.st.Store(s)
	return s
}

// New creates an empty table with the given column names.
func New(name string, cols []string) *Table {
	t := &Table{Name: name, Cols: append([]string(nil), cols...)}
	t.Data = make([][]string, len(cols))
	return t
}

// FromRows builds a table from row-major data. Short rows are padded
// with empty strings and long rows are truncated to the header width;
// both fixes are counted in Ragged rather than applied silently.
func FromRows(name string, cols []string, rows [][]string) *Table {
	t := New(name, cols)
	for c := range t.Data {
		t.Data[c] = make([]string, len(rows))
	}
	for r, row := range rows {
		if d := len(row) - len(cols); d > 0 {
			t.Ragged.Truncated += d
		} else if d < 0 {
			t.Ragged.Padded -= d
		}
		for c := 0; c < len(cols); c++ {
			if c < len(row) {
				t.Data[c][r] = row[c]
			}
		}
	}
	return t
}

// NumRows returns the number of tuples.
func (t *Table) NumRows() int {
	if t.ext.Load() {
		return t.extRows
	}
	if len(t.Data) == 0 {
		return 0
	}
	return len(t.Data[0])
}

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.Cols) }

// AppendRow adds one tuple. The row must have exactly NumCols values.
func (t *Table) AppendRow(row []string) {
	if len(row) != len(t.Cols) {
		panic(fmt.Sprintf("table %s: AppendRow got %d values, want %d", t.Name, len(row), len(t.Cols)))
	}
	t.data()
	for c, v := range row {
		t.Data[c] = append(t.Data[c], v)
	}
	t.InvalidateProfiles()
}

// Column returns the values of column c.
func (t *Table) Column(c int) []string { return t.data()[c] }

// ColumnIndex returns the index of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, n := range t.Cols {
		if n == name {
			return i
		}
	}
	return -1
}

// Row materializes row r (a fresh slice).
func (t *Table) Row(r int) []string {
	d := t.data()
	row := make([]string, len(t.Cols))
	for c := range t.Cols {
		row[c] = d[c][r]
	}
	return row
}

// Rows materializes all rows (fresh slices); intended for tests and
// small tables.
func (t *Table) Rows() [][]string {
	rows := make([][]string, t.NumRows())
	for r := range rows {
		rows[r] = t.Row(r)
	}
	return rows
}

// Project returns a new table with only the given column indices, in
// the given order. Data slices are shared with the receiver, and so
// are any column profiles and encodings already published (both are
// immutable, so sharing them across tables is safe).
func (t *Table) Project(cols []int) *Table {
	d := t.data()
	p := &Table{Name: t.Name, DatasetID: t.DatasetID}
	src := t.state()
	ps := &tableState{cols: make([]colSlot, len(cols))}
	for i, c := range cols {
		p.Cols = append(p.Cols, t.Cols[c])
		p.Data = append(p.Data, d[c])
		if e := src.cols[c].enc.Load(); e != nil {
			ps.cols[i].enc.Store(e)
		}
		if pr := src.cols[c].prof.Load(); pr != nil {
			ps.cols[i].prof.Store(pr)
		}
	}
	p.st.Store(ps)
	return p
}

// SelectRows returns a new table containing the given rows of t, in
// the given order. Cell values are copied, so the result is
// independent of the receiver.
func (t *Table) SelectRows(rows []int) *Table {
	d := t.data()
	out := New(t.Name, t.Cols)
	out.DatasetID = t.DatasetID
	for c := range out.Data {
		col := make([]string, len(rows))
		src := d[c]
		for i, r := range rows {
			col[i] = src[r]
		}
		out.Data[c] = col
	}
	return out
}

// Clone returns a deep copy of the table (excluding cached profiles
// and encodings).
func (t *Table) Clone() *Table {
	d := t.data()
	c := &Table{Name: t.Name, DatasetID: t.DatasetID, Cols: append([]string(nil), t.Cols...), Ragged: t.Ragged}
	c.Data = make([][]string, len(d))
	for i, col := range d {
		c.Data[i] = append([]string(nil), col...)
	}
	return c
}

// ColumnProfile is the cached per-column profile used throughout the
// study. Profiles are immutable once published.
type ColumnProfile struct {
	Name     string
	Type     values.ColumnType
	NumRows  int
	Nulls    int // count of null cells
	Distinct int // count of distinct non-null values

	enc *Encoding // the column's dictionary encoding
}

// NullRatio is the fraction of cells that are null.
func (p *ColumnProfile) NullRatio() float64 {
	if p.NumRows == 0 {
		return 0
	}
	return float64(p.Nulls) / float64(p.NumRows)
}

// Uniqueness is the paper's uniqueness score |set(c)| / |c|: distinct
// non-null values over total rows. A score of 1.0 with no nulls means
// the column is a key.
func (p *ColumnProfile) Uniqueness() float64 {
	if p.NumRows == 0 {
		return 0
	}
	return float64(p.Distinct) / float64(p.NumRows)
}

// IsKey reports whether the column is a single-column key: every row
// has a distinct non-null value.
func (p *ColumnProfile) IsKey() bool {
	return p.NumRows > 0 && p.Nulls == 0 && p.Distinct == p.NumRows
}

// ValueHashes returns the ascending distinct FNV-64a hashes of the
// column's non-null values (len == Distinct). The slice is shared and
// must not be mutated; it is what the join, search, and inclusion
// analyses intersect instead of rebuilding hash sets per call.
func (p *ColumnProfile) ValueHashes() []uint64 { return p.enc.hashes }

// ValueHashCounts returns the multiplicities aligned with ValueHashes.
// The slice is shared and must not be mutated.
func (p *ColumnProfile) ValueHashCounts() []int32 { return p.enc.hashCounts }

// HashValue hashes a cell value with FNV-64a, the hash underlying
// ValueHashes.
func HashValue(v string) uint64 { return hashString(v) }

// Profile returns the cached profile of column c, computing it on
// first use. The fast path is a single atomic load; a cache miss
// builds the profile exactly once under the column's build lock (see
// the package comment).
func (t *Table) Profile(c int) *ColumnProfile {
	slot := &t.state().cols[c]
	if p := slot.prof.Load(); p != nil {
		return p
	}
	return t.buildProfile(slot, c)
}

// buildProfile is Profile's slow path. The encoding is obtained first
// (it has its own exactly-once protocol on the same slot lock), then
// the profile is derived and published under the lock.
func (t *Table) buildProfile(slot *colSlot, c int) *ColumnProfile {
	e := t.encodingOf(slot, c)
	done := buildStart(BuildProfile)
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if p := slot.prof.Load(); p != nil {
		done(false)
		return p
	}
	p := profileColumn(t.Cols[c], e)
	slot.prof.Store(p)
	done(true)
	return p
}

// Profiles returns profiles for every column.
func (t *Table) Profiles() []*ColumnProfile {
	out := make([]*ColumnProfile, len(t.Cols))
	for c := range t.Cols {
		out[c] = t.Profile(c)
	}
	return out
}

// profileColumn derives a column's profile entirely from its
// dictionary encoding: nulls and distinct counts are precomputed
// aggregates, and type inference classifies each distinct value once.
func profileColumn(name string, e *Encoding) *ColumnProfile {
	return &ColumnProfile{
		Name:     name,
		NumRows:  len(e.Codes),
		Nulls:    e.nulls,
		Distinct: len(e.hashes),
		Type:     values.InferCounted(e.Dict, e.DictCounts, values.InferOptions{}),
		enc:      e,
	}
}

// InvalidateProfiles drops cached column profiles, encodings, and the
// schema key by publishing a fresh cache generation; call after
// mutating Data directly. Values handed out before the invalidation
// stay valid for (stale) readers but are never returned again.
// Encoding-backed tables materialize their Data first — the encodings
// about to be dropped are the only copy of the cell values.
func (t *Table) InvalidateProfiles() {
	t.data()
	t.initMu.Lock()
	t.st.Store(&tableState{cols: make([]colSlot, len(t.Cols))})
	t.initMu.Unlock()
}

// SchemaKey returns the canonical schema identity used for the
// unionability analysis (§6): the ordered, case-folded column names
// joined with the columns' broad type classes. Two tables are
// unionable exactly when their SchemaKeys are equal. The key is
// computed exactly once and read lock-free afterwards.
func (t *Table) SchemaKey() string {
	s := t.state()
	if k := s.schemaKey.Load(); k != nil {
		return *k
	}
	done := buildStart(BuildSchemaKey)
	s.schemaMu.Lock()
	defer s.schemaMu.Unlock()
	if k := s.schemaKey.Load(); k != nil {
		done(false)
		return *k
	}
	var b strings.Builder
	for c, name := range t.Cols {
		if c > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(strings.ToLower(strings.TrimSpace(name)))
		b.WriteByte('\x1e')
		b.WriteString(t.Profile(c).Type.BroadClass())
	}
	key := b.String()
	s.schemaKey.Store(&key)
	done(true)
	return key
}

// DistinctCount returns the number of distinct tuples in the projection
// of the table onto cols, counted exactly by partition refinement (see
// Partition). With an empty projection it returns 1 when the table has
// rows (the empty tuple) and 0 otherwise.
func (t *Table) DistinctCount(cols []int) int {
	if len(cols) == 0 {
		if t.NumRows() > 0 {
			return 1
		}
		return 0
	}
	if len(cols) == 1 {
		// Use the cached profile; count nulls as one extra distinct
		// value when present, matching tuple semantics where null cells
		// are a distinguishable value.
		p := t.Profile(cols[0])
		d := p.Distinct
		if p.Nulls > 0 {
			d++
		}
		return d
	}
	return t.NumRows() - t.partitionBy(cols).Err()
}

// String returns a short description, e.g. "awards.csv (5 cols × 120 rows)".
func (t *Table) String() string {
	return fmt.Sprintf("%s (%d cols × %d rows)", t.Name, t.NumCols(), t.NumRows())
}
