package table

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"ogdp/internal/values"
)

// FNV-64a parameters, shared by HashValue and the encoded
// value-hash sets so every layer agrees on what a value hashes to.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Encoding is the dictionary encoding of one column: the distinct raw
// values interned once at first access, with every cell reduced to a
// dense code. Codes are assigned by ascending byte order of the raw
// values, so the encoding is deterministic for a given column content.
//
// An Encoding is immutable once published; callers must treat every
// slice as read-only and may share the value freely across goroutines
// without synchronization. The only lazily attached extension — the
// canonical code stream — is published through its own atomic pointer
// and is itself immutable, so the Encoding never mutates in place.
// Obtain one via Table.Encoding.
type Encoding struct {
	// Dict holds the column's distinct raw values in ascending byte
	// order; Dict[Codes[r]] recovers the raw cell of row r.
	Dict []string
	// Codes holds one dictionary code per row.
	Codes []uint32
	// DictCounts[i] is the multiplicity of Dict[i] in the column.
	DictCounts []int32
	// DictNull[i] reports whether Dict[i] spells a null
	// (values.IsNull).
	DictNull []bool

	nulls int // total null cells

	// hashes holds the ascending distinct FNV-64a hashes of the
	// non-null dictionary entries; hashCounts is aligned with it. In
	// the astronomically unlikely event two distinct raw values share a
	// hash, their counts are merged, matching the historical
	// ColumnProfile.Counts map semantics.
	hashes     []uint64
	hashCounts []int32

	// canon is the lazily built per-row canonical code stream,
	// published atomically (nil until first use). The stream is built
	// exactly once under canonMu and never mutated afterwards; readers
	// only ever load the pointer.
	canonMu sync.Mutex
	canon   atomic.Pointer[canonStream]
}

// canonStream is a column's canonical per-row code stream: every null
// spelling maps to 0 and the k-th non-null dictionary entry (in Dict
// order) maps to k+1. size is the code-space size (distinct non-null
// entries + 1), so codes are always in [0, size). Immutable once
// published.
type canonStream struct {
	codes []uint32
	size  int
}

// Nulls returns the number of null cells in the column.
func (e *Encoding) Nulls() int { return e.nulls }

// ValueHashes returns the ascending distinct FNV-64a hashes of the
// column's non-null values. The slice is shared and must not be
// mutated.
func (e *Encoding) ValueHashes() []uint64 { return e.hashes }

// ValueHashCounts returns the multiplicities aligned with ValueHashes.
// The slice is shared and must not be mutated.
func (e *Encoding) ValueHashCounts() []int32 { return e.hashCounts }

// IntersectSize counts the elements two ascending slices share, such
// as two columns' ValueHashes: their distinct-value overlap.
func IntersectSize(a, b []uint64) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// encodeScratch is encodeColumn's working memory, reused across calls
// through encodePool. The map is cleared before the scratch goes back
// to the pool, so pooled scratch never keeps a table's strings alive;
// the other fields hold no pointers. No Encoding points into scratch:
// its outputs are fresh allocations.
type encodeScratch struct {
	idx   map[string]uint32 // raw value -> first-seen code
	perm  []uint32          // first-seen code -> sorted code
	pairs []hashCount       // (hash, count) of the non-null entries
}

type hashCount struct {
	h uint64
	n int32
}

var encodePool = sync.Pool{New: func() any {
	return &encodeScratch{idx: make(map[string]uint32)}
}}

// encodeColumn builds the eager part of a column's encoding (the canon
// stream is materialized separately, on demand).
func encodeColumn(col []string) *Encoding {
	sc := encodePool.Get().(*encodeScratch)
	defer func() {
		clear(sc.idx)
		encodePool.Put(sc)
	}()

	e := &Encoding{Codes: make([]uint32, len(col))}
	for r, v := range col {
		c, ok := sc.idx[v]
		if !ok {
			c = uint32(len(sc.idx))
			sc.idx[v] = c
		}
		e.Codes[r] = c
	}
	// Re-assign codes by ascending raw value so they are independent of
	// row order for a given multiset of values.
	n := len(sc.idx)
	e.Dict = make([]string, 0, n)
	for v := range sc.idx {
		e.Dict = append(e.Dict, v)
	}
	slices.Sort(e.Dict)
	sc.perm = slices.Grow(sc.perm[:0], n)[:n]
	for newCode, v := range e.Dict {
		sc.perm[sc.idx[v]] = uint32(newCode)
	}
	e.DictCounts = make([]int32, n)
	for r, c := range e.Codes {
		nc := sc.perm[c]
		e.Codes[r] = nc
		e.DictCounts[nc]++
	}
	e.DictNull = make([]bool, n)
	nonNull := 0
	for i, v := range e.Dict {
		if values.IsNull(v) {
			e.DictNull[i] = true
			e.nulls += int(e.DictCounts[i])
		} else {
			nonNull++
		}
	}
	e.buildHashes(sc, nonNull)
	return e
}

// buildHashes fills hashes/hashCounts from the non-null dictionary
// entries, merging counts on (vanishingly rare) hash collisions.
func (e *Encoding) buildHashes(sc *encodeScratch, nonNull int) {
	if nonNull == 0 {
		return
	}
	pairs := sc.pairs[:0]
	for i, v := range e.Dict {
		if !e.DictNull[i] {
			pairs = append(pairs, hashCount{hashString(v), e.DictCounts[i]})
		}
	}
	sc.pairs = pairs
	slices.SortFunc(pairs, func(a, b hashCount) int { return cmp.Compare(a.h, b.h) })
	e.hashes = make([]uint64, 0, nonNull)
	e.hashCounts = make([]int32, 0, nonNull)
	for _, p := range pairs {
		if k := len(e.hashes) - 1; k >= 0 && e.hashes[k] == p.h {
			e.hashCounts[k] += p.n
			continue
		}
		e.hashes = append(e.hashes, p.h)
		e.hashCounts = append(e.hashCounts, p.n)
	}
}

// CanonCodes returns the column's canonical per-row codes and code
// space size, building the stream exactly once on first use. The fast
// path is a single atomic load; misses serialize on this encoding's
// build lock only.
func (e *Encoding) CanonCodes() (codes []uint32, size int) {
	if cs := e.canon.Load(); cs != nil {
		return cs.codes, cs.size
	}
	done := buildStart(BuildCanon)
	e.canonMu.Lock()
	defer e.canonMu.Unlock()
	if cs := e.canon.Load(); cs != nil {
		done(false)
		return cs.codes, cs.size
	}
	cs := e.materializeCanon()
	e.canon.Store(cs)
	done(true)
	return cs.codes, cs.size
}

// materializeCanon builds the canonical code stream. The result is
// published (and thereby frozen) by the caller.
func (e *Encoding) materializeCanon() *canonStream {
	entryCanon := make([]uint32, len(e.Dict))
	next := uint32(1)
	for i := range e.Dict {
		if e.DictNull[i] {
			entryCanon[i] = 0
			continue
		}
		entryCanon[i] = next
		next++
	}
	canon := make([]uint32, len(e.Codes))
	for r, c := range e.Codes {
		canon[r] = entryCanon[c]
	}
	return &canonStream{codes: canon, size: int(next)}
}

// hashString is FNV-64a, identical to hash/fnv but allocation-free.
func hashString(v string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(v); i++ {
		h ^= uint64(v[i])
		h *= fnvPrime64
	}
	return h
}

// Encoding returns the cached dictionary encoding of column c,
// building it on first use. The fast path is a single atomic pointer
// load; after the encoding has been published, concurrent readers
// never contend on a lock. A cache miss builds the column exactly once
// under that column's build lock — racing goroutines block only for
// the duration of the one build and then share the published value.
func (t *Table) Encoding(c int) *Encoding {
	slot := &t.slots[c]
	if e := slot.enc.Load(); e != nil {
		return e
	}
	return t.buildEncoding(slot, c)
}

// buildEncoding is Encoding's slow path: exactly-once build under the
// column's lock, then atomic publication. Encoding-backed tables never
// get here: FromEncodings publishes every encoding at construction.
func (t *Table) buildEncoding(slot *colSlot, c int) *Encoding {
	done := buildStart(BuildEncode)
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if e := slot.enc.Load(); e != nil {
		done(false)
		return e
	}
	e := encodeColumn(t.cells[c])
	slot.enc.Store(e)
	done(true)
	return e
}

// CanonCodes returns column c's canonical per-row codes and the size
// of their code space: all null spellings share code 0 and the k-th
// distinct non-null value (in ascending raw order) is k+1, so two rows
// agree on the column exactly when their codes are equal. The slice is
// shared and must not be mutated. Partition refinement (FD discovery,
// distinct counts, deduplication) runs entirely on these streams;
// reads are lock-free after the stream's exactly-once build.
func (t *Table) CanonCodes(c int) (codes []uint32, size int) {
	return t.Encoding(c).CanonCodes()
}

// Value returns the raw cell value of column c, row r. An
// encoding-backed table answers from the column's dictionary without
// materializing its cells.
func (t *Table) Value(c, r int) string {
	if t.ext.Load() {
		e := t.slots[c].enc.Load()
		return e.Dict[e.Codes[r]]
	}
	return t.cells[c][r]
}
