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
//
// A column set K is a candidate key when the projection onto K has as
// many distinct tuples as the table has rows. Minimality over the
// searched sizes is implied by returning the smallest size found.
func MinCandidateKeySize(t *table.Table, maxSize int) int {
	n := t.NumRows()
	if n == 0 || t.NumCols() == 0 {
		return 0
	}
	if maxSize > t.NumCols() {
		maxSize = t.NumCols()
	}

	// Size 1: use cached profiles.
	for c := range t.Cols {
		if t.Profile(c).IsKey() {
			return 1
		}
	}
	if maxSize < 2 {
		return 0
	}

	// Prune: a column whose distinct count is 1 can never help
	// distinguish tuples beyond what other columns do... it can still
	// participate but adds nothing; exclude constant columns to shrink
	// the search space.
	var useful []int
	for c := range t.Cols {
		if t.DistinctCount([]int{c}) > 1 {
			useful = append(useful, c)
		}
	}

	for size := 2; size <= maxSize; size++ {
		if found := searchSize(t, useful, size, n); found {
			return size
		}
	}
	return 0
}

// searchSize checks whether any column combination of exactly the given
// size is a key.
func searchSize(t *table.Table, cols []int, size, nRows int) bool {
	combo := make([]int, size)
	var rec func(start, depth int) bool
	rec = func(start, depth int) bool {
		if depth == size {
			return t.DistinctCount(combo) == nRows
		}
		for i := start; i <= len(cols)-(size-depth); i++ {
			combo[depth] = cols[i]
			if rec(i+1, depth+1) {
				return true
			}
		}
		return false
	}
	return rec(0, 0)
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
