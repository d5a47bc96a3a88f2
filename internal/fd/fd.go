// Package fd discovers minimal non-trivial functional dependencies,
// reproducing the paper's §4.2 analysis. The main engine implements
// the FUN algorithm of Novelli & Cicchetti ("FUN: An efficient
// algorithm for mining functional and embedded dependencies", ICDT
// 2001): a levelwise exploration of *free sets* driven entirely by
// cardinality (count-distinct) comparisons:
//
//   - X → A holds iff |π_X(T)| = |π_{X∪A}(T)|,
//   - an attribute set X is free iff no proper subset has the same
//     cardinality; free sets are downward closed, and every minimal FD
//     has a free left-hand side, so only free sets are expanded.
//
// Following the paper, an FD X → A is trivial when A ∈ X or X is a
// (super)key, and discovery is bounded at |LHS| ≤ 4 (MaxLHS).
//
// card(X) is counted exactly by stripped-partition refinement, the
// partitions of TANE (table.Partition): a column's partition groups the
// rows by its canonical code, and card(X ∪ {a}) = nRows − Err(π_X) +
// Σ over π_X's classes of (distinct a-codes in the class − 1), which
// reads only the rows inside X's classes. No row is hashed, so no hash
// collision can undercount card and report a false FD. The engine keeps
// one partition per column and the chain of prefix partitions of the
// set it refined last, never one per set, so its memory is
// O(nCols·nRows) however many sets the search visits.
//
// Because the search sees the data only through cardinalities and the
// row count, one Lattice (engine plus cardinality cache) also answers
// discovery on any deduplicated projection of its table; BCNF
// decomposition uses that to avoid building intermediate sub-tables.
package fd

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"ogdp/internal/table"
)

// MaxLHS is the paper's bound on the left-hand-side size.
const MaxLHS = 4

// MaxColumns is the widest table Discover accepts; the levelwise
// lattice is exponential in the column count, and the paper
// restricts the FD analysis to tables with at most 20 columns.
const MaxColumns = 64

// FD is a functional dependency LHS → RHS with a single right-hand
// attribute. Attributes are column indices. A nil/empty LHS means the
// RHS column is constant (determined by the empty set).
type FD struct {
	LHS []int
	RHS int
}

// String renders the FD with column indices, e.g. "[0 2] -> 3".
func (f FD) String() string {
	parts := make([]string, len(f.LHS))
	for i, a := range f.LHS {
		parts[i] = fmt.Sprint(a)
	}
	return "{" + strings.Join(parts, ",") + "} -> " + fmt.Sprint(f.RHS)
}

// Format renders the FD with column names from t.
func (f FD) Format(t *table.Table) string {
	parts := make([]string, len(f.LHS))
	for i, a := range f.LHS {
		parts[i] = t.Cols[a]
	}
	return strings.Join(parts, ", ") + " -> " + t.Cols[f.RHS]
}

// attrset is a bitmask over column indices (< MaxColumns).
type attrset uint64

func (s attrset) has(a int) bool        { return s&(1<<uint(a)) != 0 }
func (s attrset) with(a int) attrset    { return s | 1<<uint(a) }
func (s attrset) without(a int) attrset { return s &^ (1 << uint(a)) }
func (s attrset) size() int {
	n := 0
	for s != 0 {
		s &= s - 1
		n++
	}
	return n
}

func (s attrset) members(nCols int) []int {
	var out []int
	for a := 0; a < nCols; a++ {
		if s.has(a) {
			out = append(out, a)
		}
	}
	return out
}

func setOf(attrs []int) attrset {
	var s attrset
	for _, a := range attrs {
		s = s.with(a)
	}
	return s
}

// engine runs the lattice search over the table's shared canonical
// code streams (table.CanonCodes): per column, every null spelling is
// code 0 and distinct non-null values are dense codes. The encoding is
// built once per table and shared with every other analysis layer.
//
// card(X) for |X| ≥ 2 refines the stripped partition of X's parent, X
// without its highest column, by that column (table.Partitioner.Count)
// instead of hashing every row. A set's partition is built by refining
// its columns in ascending order, and the engine keeps that chain of
// prefix partitions, so the next set sharing a prefix refines only
// from where the two differ. FUN lists each level's sets in
// lexicographic order, each right after the siblings that share its
// parent, so a parent is usually one refinement away.
//
// Memory stays O(nCols·nRows): one partition per column and one per
// chain position, each at most nRows rows, all built on first use.
// Partitions of sets off the current chain are not kept: the search
// meets tens of thousands of sets, and a partition per set would grow
// with the lattice rather than the table.
type engine struct {
	nRows     int
	nCols     int
	codes     [][]uint32 // codes[c]: canonical code stream of column c
	codeSizes []int      // code-space size per column (distinct incl. the null code)
	cards     map[attrset]int

	z     table.Partitioner
	cols  []table.Partition // cols[c]: partition by column c, once built
	built attrset           // columns whose partition is in cols
	chain []link            // chain[i]: a set of i+2 columns (see partition); never resized
}

// link is one position of the prefix chain: a column set and its
// partition.
type link struct {
	set attrset
	p   table.Partition
}

func newEngine(t *table.Table) *engine {
	e := &engine{
		nRows:     t.NumRows(),
		nCols:     t.NumCols(),
		codes:     make([][]uint32, t.NumCols()),
		codeSizes: make([]int, t.NumCols()),
		cards:     make(map[attrset]int),
		cols:      make([]table.Partition, t.NumCols()),
		chain:     make([]link, t.NumCols()),
	}
	for c := 0; c < e.nCols; c++ {
		e.codes[c], e.codeSizes[c] = t.CanonCodes(c)
	}
	return e
}

// card returns the number of distinct tuples in the projection onto s,
// caching results across the lattice exploration.
func (e *engine) card(s attrset) int {
	if s == 0 {
		if e.nRows > 0 {
			return 1
		}
		return 0
	}
	if n, ok := e.cards[s]; ok {
		return n
	}
	if s&(s-1) != 0 {
		a := 63 - bits.LeadingZeros64(uint64(s))
		return e.cardWith(s.without(a), a)
	}
	// Single columns read straight off the encoding: the canon code
	// space is dense, so the distinct count is its size, minus the null
	// bucket when no row uses it.
	c := bits.TrailingZeros64(uint64(s))
	n := e.codeSizes[c] - 1
	for _, code := range e.codes[c] {
		if code == 0 { // a null row: the null bucket is populated
			n++
			break
		}
	}
	e.cards[s] = n
	return n
}

// cardWith is card(x ∪ {a}) for a non-empty x without a, counted by
// refining x's partition by a. Intermediate partitions the chain builds
// on the way do not enter the cache.
func (e *engine) cardWith(x attrset, a int) int {
	s := x.with(a)
	if n, ok := e.cards[s]; ok {
		return n
	}
	n := e.z.Count(e.partition(x), e.nRows, e.codes[a], e.codeSizes[a])
	e.cards[s] = n
	return n
}

// column returns the partition of the rows by column c.
func (e *engine) column(c int) *table.Partition {
	if !e.built.has(c) {
		e.z.Column(&e.cols[c], e.codes[c], e.codeSizes[c])
		e.built = e.built.with(c)
	}
	return &e.cols[c]
}

// partition returns the partition of x (non-empty): its lowest column's
// partition refined by the others in ascending order. Chain position i
// holds the prefix of the first i+2 columns of the last set built
// through it; a position whose set matches x's prefix is reused as is,
// since a position is only rewritten when its set changes. The returned
// partition is valid until the next call.
func (e *engine) partition(x attrset) *table.Partition {
	first := bits.TrailingZeros64(uint64(x))
	p := e.column(first)
	prefix := attrset(0).with(first)
	i := 0
	for rest := x.without(first); rest != 0; rest &= rest - 1 {
		c := bits.TrailingZeros64(uint64(rest))
		prefix = prefix.with(c)
		l := &e.chain[i]
		if l.set != prefix {
			e.z.Refine(&l.p, p, e.codes[c], e.codeSizes[c])
			l.set = prefix
		}
		p = &l.p
		i++
	}
	return p
}

// Discover returns all minimal non-trivial FDs of t with |LHS| ≤
// maxLHS (pass fd.MaxLHS for the paper's setting). Tables wider than
// MaxColumns or with no rows yield no FDs. Constant columns are
// reported as FDs with an empty LHS.
func Discover(t *table.Table, maxLHS int) []FD {
	fds, _ := DiscoverCost(t, maxLHS)
	return fds
}

// Cost summarizes the work one Discover call performed, for the
// observability layer. Both counts derive only from the table's
// contents and maxLHS, so they are deterministic.
type Cost struct {
	// Cardinalities is the number of distinct count-distinct
	// computations the FUN lattice exploration evaluated (cache
	// misses of the projection-cardinality cache).
	Cardinalities int
	// FDs is the number of minimal non-trivial FDs found.
	FDs int
}

// DiscoverCost is Discover plus the work counters the search accrued.
func DiscoverCost(t *table.Table, maxLHS int) ([]FD, Cost) {
	return NewLattice(t).Discover(maxLHS)
}

// HasNontrivialFD reports whether t has at least one non-trivial FD
// with |LHS| ≤ maxLHS, short-circuiting on the first hit.
func HasNontrivialFD(t *table.Table, maxLHS int) bool {
	l := NewLattice(t)
	if l.e == nil || maxLHS < 1 {
		return false
	}
	return len(l.e.discover(fullSet(l.e.nCols), l.e.nRows, maxLHS, true)) > 0
}

// Lattice is the projection-cardinality lattice of one table: the FUN
// engine with its memoized card(X) cache over the table's columns.
// Besides the table itself it answers FD discovery for any
// deduplicated projection π_S(T) without building it. The search reads
// the data only through card(X) and the row count nTotal, and both
// carry over exactly:
//
//   - for X ⊆ S, card_{π_S T}(X) = card_T(X), because canonical codes
//     depend only on the values;
//   - π_S T has nTotal = card_T(S) rows once duplicates are removed.
//
// Every search on a lattice therefore reuses the cardinalities the
// earlier ones computed. A Lattice is not safe for concurrent use.
type Lattice struct {
	e *engine // nil when the table is outside Discover's bounds
}

// NewLattice returns the lattice of t. A table with no columns, more
// than MaxColumns columns, or no rows gets an empty lattice on which
// every search yields no FDs.
func NewLattice(t *table.Table) *Lattice {
	if t.NumCols() == 0 || t.NumCols() > MaxColumns || t.NumRows() == 0 {
		return &Lattice{}
	}
	return &Lattice{e: newEngine(t)}
}

// Discover is the root search, the FDs and Cost DiscoverCost returns
// for the lattice's table (nTotal is the row count, duplicates
// included). Cost.Cardinalities is the size of the shared cache when
// the search ends, so it counts the root search alone only when no
// DiscoverCols call ran before it.
func (l *Lattice) Discover(maxLHS int) ([]FD, Cost) {
	if l.e == nil || maxLHS < 1 {
		return nil, Cost{}
	}
	fds := l.e.discover(fullSet(l.e.nCols), l.e.nRows, maxLHS, false)
	sortFDs(fds)
	return fds, Cost{Cardinalities: len(l.e.cards), FDs: len(fds)}
}

// DiscoverCols returns the minimal non-trivial FDs with |LHS| ≤ maxLHS
// of the deduplicated projection of the table onto cols, a list of
// distinct original column indices: the FDs Discover would find on
// that projection built as a table with duplicate rows removed. The
// FDs use local indices (local column i is original column cols[i])
// and are sorted as Discover sorts them.
func (l *Lattice) DiscoverCols(cols []int, maxLHS int) []FD {
	if l.e == nil || len(cols) == 0 || maxLHS < 1 {
		return nil
	}
	view := setOf(cols)
	fds := l.e.discover(view, l.e.card(view), maxLHS, false)
	local := make([]int, l.e.nCols)
	for i, c := range cols {
		local[c] = i
	}
	for i := range fds {
		for k, a := range fds[i].LHS {
			fds[i].LHS[k] = local[a]
		}
		sort.Ints(fds[i].LHS)
		fds[i].RHS = local[fds[i].RHS]
	}
	sortFDs(fds)
	return fds
}

// fullSet is the attribute set of the first n columns.
func fullSet(n int) attrset {
	var s attrset
	for a := 0; a < n; a++ {
		s = s.with(a)
	}
	return s
}

// discover runs the FUN levelwise search over the columns in view, for
// a relation of nTotal rows, and returns its FDs unsorted in original
// column indices. With firstOnly it returns as soon as one FD is found.
func (e *engine) discover(view attrset, nTotal, maxLHS int, firstOnly bool) []FD {
	var fds []FD
	attrs := view.members(e.nCols)
	// minimalFor[a] holds emitted LHS sets per RHS, for minimality checks.
	minimalFor := make([][]attrset, e.nCols)

	emit := func(lhs attrset, rhs int) {
		for _, prev := range minimalFor[rhs] {
			if prev&lhs == prev { // prev ⊆ lhs: not minimal
				return
			}
		}
		minimalFor[rhs] = append(minimalFor[rhs], lhs)
		fds = append(fds, FD{LHS: lhs.members(e.nCols), RHS: rhs})
	}

	// Level 0: the empty set determines constant columns.
	for _, a := range attrs {
		if e.card(attrset(0).with(a)) == 1 && nTotal > 1 {
			emit(0, a)
			if firstOnly && len(fds) > 0 {
				return fds
			}
		}
	}

	// Level 1 free sets: non-constant, non-duplicate-cardinality is not
	// required at level 1 beyond excluding constants (card == card(∅)).
	level := make([]attrset, 0, len(attrs))
	free := make(map[attrset]bool, len(attrs)*2)
	for _, a := range attrs {
		s := attrset(0).with(a)
		if e.card(s) > 1 || nTotal <= 1 {
			level = append(level, s)
			free[s] = true
		}
	}

	for size := 1; size <= maxLHS && len(level) > 0; size++ {
		// Emit FDs from this level's free sets.
		for _, x := range level {
			cx := e.card(x)
			if cx == nTotal {
				continue // X is a (super)key: all its FDs are trivial per the paper
			}
			for _, a := range attrs {
				if x.has(a) {
					continue
				}
				if e.cardWith(x, a) == cx {
					emit(x, a)
					if firstOnly && len(fds) > 0 {
						return fds
					}
				}
			}
		}
		if size == maxLHS {
			break
		}
		// Generate the next level of free sets.
		next := make([]attrset, 0, len(level))
		seen := make(map[attrset]bool, len(level)*2)
		for _, x := range level {
			cx := e.card(x)
			if cx == nTotal {
				continue // supersets of keys are never free
			}
			for _, a := range attrs {
				if x.has(a) {
					continue
				}
				cand := x.with(a)
				if seen[cand] {
					continue
				}
				seen[cand] = true
				if isFree(e, free, cand, e.nCols) {
					free[cand] = true
					next = append(next, cand)
				}
			}
		}
		level = next
	}
	return fds
}

// isFree reports whether cand is a free set: every proper subset one
// level down must itself be free and have strictly smaller cardinality.
func isFree(e *engine, free map[attrset]bool, cand attrset, nCols int) bool {
	cCand := e.card(cand)
	for a := 0; a < nCols; a++ {
		if !cand.has(a) {
			continue
		}
		sub := cand.without(a)
		if !free[sub] {
			return false
		}
		if e.card(sub) >= cCand {
			return false
		}
	}
	return true
}

func sortFDs(fds []FD) {
	sort.Slice(fds, func(i, j int) bool {
		a, b := fds[i], fds[j]
		if len(a.LHS) != len(b.LHS) {
			return len(a.LHS) < len(b.LHS)
		}
		for k := range a.LHS {
			if a.LHS[k] != b.LHS[k] {
				return a.LHS[k] < b.LHS[k]
			}
		}
		return a.RHS < b.RHS
	})
}

// SimpleFDs filters fds to those with a single-attribute LHS, the
// City → Province style dependencies the paper reports separately in
// Table 5.
func SimpleFDs(fds []FD) []FD {
	var out []FD
	for _, f := range fds {
		if len(f.LHS) == 1 {
			out = append(out, f)
		}
	}
	return out
}

// Holds verifies an FD directly against the table, treating all null
// spellings as one value (the canonical-code convention). Intended for
// tests and spot checks.
func Holds(t *table.Table, f FD) bool {
	n := t.NumRows()
	if n == 0 {
		return true
	}
	lhs := make([][]uint32, len(f.LHS))
	for i, c := range f.LHS {
		lhs[i], _ = t.CanonCodes(c)
	}
	rhs, _ := t.CanonCodes(f.RHS)
	seen := make(map[string]uint32)
	var key []byte
	for r := 0; r < n; r++ {
		key = key[:0]
		for _, col := range lhs {
			v := col[r]
			key = append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		if prev, ok := seen[string(key)]; ok {
			if prev != rhs[r] {
				return false
			}
		} else {
			seen[string(key)] = rhs[r]
		}
	}
	return true
}
