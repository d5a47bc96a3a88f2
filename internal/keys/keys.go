// Package keys discovers key columns and minimal composite candidate
// keys, the §4.1 analysis of the paper: which tables have a
// single-column key, which need composite keys of size 2 or 3, and
// which have no candidate key of size ≤ 3 at all (Figure 6).
package keys

import "ogdp/internal/table"

// MaxCandidateKeySize is the largest composite key the paper searches
// for.
const MaxCandidateKeySize = 3

// KeyColumns returns the indices of single-column keys: columns whose
// uniqueness score is 1.0 with no nulls.
func KeyColumns(t *table.Table) []int {
	var out []int
	for c := range t.Cols {
		if t.Profile(c).IsKey() {
			out = append(out, c)
		}
	}
	return out
}

// MinCandidateKeySize returns the size of the smallest candidate key of
// the table, searching keys of up to maxSize columns (use
// MaxCandidateKeySize for the paper's setting). It returns 0 when no
// candidate key of size ≤ maxSize exists, and 0 for empty tables.
func MinCandidateKeySize(t *table.Table, maxSize int) int {
	return len(MinCandidateKey(t, maxSize, t.DistinctCount))
}

// MinCandidateKey returns the first smallest candidate key of t of at
// most maxSize columns, or nil when there is none (and for empty
// tables). card(cols) must return the number of distinct tuples of the
// projection onto cols, as Table.DistinctCount does; the §4 study
// passes its FD lattice's cache instead, so every count the FD search
// already made is reused.
//
// A single column is a key when its profile says so (IsKey: unique and
// never null). Larger keys are searched size by size over the
// non-constant columns, in lexicographic order of their indices: a
// column set K is a candidate key when the projection onto K has as
// many distinct tuples as the table has rows. Minimality over the
// searched sizes is implied by returning at the smallest size found.
func MinCandidateKey(t *table.Table, maxSize int, card func(cols []int) int) []int {
	n := t.NumRows()
	if n == 0 || t.NumCols() == 0 {
		return nil
	}
	maxSize = min(maxSize, t.NumCols())
	for c := range t.Cols {
		if t.Profile(c).IsKey() {
			return []int{c}
		}
	}
	// A constant column never tells two rows apart, so it is left out
	// of the search.
	var useful []int
	for c := range t.Cols {
		if card([]int{c}) > 1 {
			useful = append(useful, c)
		}
	}
	combo := make([]int, 0, maxSize)
	var rec func(start, size int) bool
	rec = func(start, size int) bool {
		if len(combo) == size {
			return card(combo) == n
		}
		for i := start; i <= len(useful)-(size-len(combo)); i++ {
			combo = append(combo, useful[i])
			if rec(i+1, size) {
				return true
			}
			combo = combo[:len(combo)-1]
		}
		return false
	}
	for size := 2; size <= maxSize; size++ {
		if rec(0, size) {
			return combo
		}
	}
	return nil
}

// SizeDistribution bins a set of tables by minimal candidate key size:
// index 1..maxSize hold counts of tables whose smallest key has that
// size; index 0 holds tables with no key of size ≤ maxSize.
func SizeDistribution(tables []*table.Table, maxSize int) []int {
	sizes := make([]int, len(tables))
	for i, t := range tables {
		sizes[i] = MinCandidateKeySize(t, maxSize)
	}
	return FoldSizeDistribution(sizes, maxSize)
}

// FoldSizeDistribution bins per-table minimal key sizes (as returned
// by MinCandidateKeySize) into the Figure 6 histogram: index 1..maxSize
// count tables whose smallest key has that size; index 0 counts tables
// with no key of size ≤ maxSize.
func FoldSizeDistribution(sizes []int, maxSize int) []int {
	dist := make([]int, maxSize+1)
	for _, s := range sizes {
		dist[s]++
	}
	return dist
}
