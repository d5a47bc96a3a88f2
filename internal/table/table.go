// Package table implements the in-memory relational table model the
// study operates on: columnar storage with a lazily built dictionary
// encoding per column (sorted distinct values, dense uint32 codes),
// cached column profiles (inferred type, null ratio, distinct values,
// uniqueness score), and the projection primitives used by key
// discovery, functional dependency mining, and join analysis: value
// hashes for joins, and exact stripped partitions (Partition) for
// distinct counts and duplicate removal.
//
// A table is immutable once constructed: New takes its cells, every
// other constructor (FromRows, DistinctProject, FromEncodings) is
// built on it, and the raw cell store is unexported,
// so no code outside this package can write a cell after the caches
// over it exist. Raw strings are reachable only through Value, Column,
// Row/Rows and the column Encoding; every analysis hot path runs on
// the encoded form and recovers raw values through the dictionary.
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
// Because the cells never change, a published cache never goes stale,
// and tables may share cell slices and published caches
// (DistinctProject) with each other.
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
// The cells cannot change after construction (see the package
// comment), so every method is safe for concurrent use: the lazy
// caches behind Profile, Profiles, Encoding, CanonCodes, SchemaKey,
// and DistinctCount are lock-free after first publication.
type Table struct {
	// Name identifies the table (typically the resource file name).
	Name string
	// DatasetID is the identifier of the CKAN dataset the table was
	// published under; empty when the table is free-standing.
	DatasetID string
	// Cols holds the column names, in order.
	Cols []string
	// Ragged records cells truncated or padded at ingest time.
	Ragged RaggedCells

	// cells holds the raw values: cells[c][r] is row r of column c.
	// For encoding-backed tables (FromEncodings) cells starts nil and
	// is materialized from the dictionaries on first row-level access;
	// always read it through data().
	cells [][]string
	rows  int

	slots []colSlot // per-column caches, indexed like Cols

	schemaMu  sync.Mutex // serializes SchemaKey builds
	schemaKey atomic.Pointer[string]

	// ext marks an encoding-backed table whose cells have not been
	// materialized yet (see FromEncodings).
	ext    atomic.Bool
	dataMu sync.Mutex // serializes materializeCells
}

// colSlot holds one column's published caches plus the build lock that
// makes each cache exactly-once. The atomic pointers are the only
// fields readers touch after publication.
type colSlot struct {
	mu   sync.Mutex // serializes builds of this column only
	enc  atomic.Pointer[Encoding]
	prof atomic.Pointer[ColumnProfile]
}

// New constructs a table from column-major cells: data[c][r] is row r
// of column c. The table takes ownership of data, which the caller must
// not modify afterwards. New panics unless there is exactly one column
// of cells per name and every column has the same length.
func New(name string, cols []string, data [][]string) *Table {
	if len(data) != len(cols) {
		panic(fmt.Sprintf("table %s: %d columns of cells for %d names", name, len(data), len(cols)))
	}
	rows := 0
	if len(data) > 0 {
		rows = len(data[0])
	}
	for c, col := range data {
		if len(col) != rows {
			panic(fmt.Sprintf("table %s: column %d has %d rows, column 0 has %d", name, c, len(col), rows))
		}
	}
	return newTable(name, cols, data, rows, nil, nil)
}

// newTable is the one place a table and its cache slots are allocated.
// Its callers have validated the shape. Non-nil entries of encs and
// profs are published into the slots of the same index; no reader can
// hold the table yet, so the stores need no build lock.
func newTable(name string, cols []string, cells [][]string, rows int, encs []*Encoding, profs []*ColumnProfile) *Table {
	t := &Table{
		Name:  name,
		Cols:  append([]string(nil), cols...),
		cells: cells,
		rows:  rows,
		slots: make([]colSlot, len(cols)),
	}
	for i, e := range encs {
		if e != nil {
			t.slots[i].enc.Store(e)
		}
	}
	for i, p := range profs {
		if p != nil {
			t.slots[i].prof.Store(p)
		}
	}
	return t
}

// FromRows builds a table from row-major data. Short rows are padded
// with empty strings and long rows are truncated to the header width;
// both fixes are counted in Ragged rather than applied silently.
func FromRows(name string, cols []string, rows [][]string) *Table {
	data := make([][]string, len(cols))
	for c := range data {
		data[c] = make([]string, len(rows))
	}
	var ragged RaggedCells
	for r, row := range rows {
		if d := len(row) - len(cols); d > 0 {
			ragged.Truncated += d
		} else if d < 0 {
			ragged.Padded -= d
		}
		for c := 0; c < len(cols) && c < len(row); c++ {
			data[c][r] = row[c]
		}
	}
	t := New(name, cols, data)
	t.Ragged = ragged
	return t
}

// NumRows returns the number of tuples.
func (t *Table) NumRows() int { return t.rows }

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.Cols) }

// Column returns the values of column c. The slice is shared with the
// table and must not be mutated.
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

// DistinctProject returns the deduplicated projection of t onto cols,
// column indices in the given order: the first row of every distinct
// tuple of those columns, in row order, with every null spelling equal
// (canonical codes). When no row is dropped the result shares t's
// storage (its cell slices, or an encoding-backed t's encodings) and
// every encoding and profile t has already published; all of them are
// immutable, so sharing them across tables is safe. Otherwise the kept
// rows are gathered into fresh columns, an encoding-backed t read
// through its dictionaries without materializing its cells. With no
// columns the result has no rows.
func (t *Table) DistinctProject(cols []int) *Table {
	names := make([]string, len(cols))
	data := make([][]string, len(cols))
	for i, c := range cols {
		names[i] = t.Cols[c]
	}
	var p *Table
	if keep := t.distinctRows(cols); keep != nil {
		for i, c := range cols {
			data[i] = make([]string, len(keep))
			for k, r := range keep {
				data[i][k] = t.Value(c, r)
			}
		}
		p = New(t.Name, names, data)
	} else {
		encs := make([]*Encoding, len(cols))
		profs := make([]*ColumnProfile, len(cols))
		ext := t.ext.Load()
		for i, c := range cols {
			encs[i], profs[i] = t.slots[c].enc.Load(), t.slots[c].prof.Load()
			if !ext {
				data[i] = t.cells[c]
			}
		}
		if ext {
			data = nil // every encoding is published: share those, and no cells
		}
		p = newTable(t.Name, names, data, t.rows, encs, profs)
		p.ext.Store(ext)
	}
	p.DatasetID = t.DatasetID
	return p
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
	slot := &t.slots[c]
	if p := slot.prof.Load(); p != nil {
		return p
	}
	return t.buildProfile(slot, c)
}

// buildProfile is Profile's slow path. The encoding is obtained first
// (it has its own exactly-once protocol on the same slot lock), then
// the profile is derived and published under the lock.
func (t *Table) buildProfile(slot *colSlot, c int) *ColumnProfile {
	e := t.Encoding(c)
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

// SchemaKey returns the canonical schema identity used for the
// unionability analysis (§6): the ordered, case-folded column names
// joined with the columns' broad type classes. Two tables are
// unionable exactly when their SchemaKeys are equal. The key is
// computed exactly once and read lock-free afterwards.
func (t *Table) SchemaKey() string {
	if k := t.schemaKey.Load(); k != nil {
		return *k
	}
	done := buildStart(BuildSchemaKey)
	t.schemaMu.Lock()
	defer t.schemaMu.Unlock()
	if k := t.schemaKey.Load(); k != nil {
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
	t.schemaKey.Store(&key)
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
