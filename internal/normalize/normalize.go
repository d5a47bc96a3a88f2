// Package normalize decomposes tables with non-trivial functional
// dependencies into Boyce-Codd normal form, reproducing the paper's
// §4.3 analysis: the textbook BCNF algorithm, picking one remaining
// non-trivial FD X → A uniformly at random, splitting the table into
// T1 = X ∪ A and T2 = X ∪ (attr(T) \ A), and recursing until every
// sub-table is in BCNF. The package also measures the decomposition's
// effect on uniqueness scores (Table 5).
//
// The decomposition never builds an intermediate sub-table. Every
// sub-table is the deduplicated projection π_S(T) of the original
// onto some column set S (a chain of deduplicated projections is one
// deduplicated projection of the composed column list), and the FUN
// search of internal/fd reads a table only through projection
// cardinalities card(X) and its row count. Both carry over exactly to
// π_S(T): card_{π_S T}(X) = card_T(X) for every X ⊆ S, because
// canonical codes depend only on the values, and π_S(T) has card_T(S)
// rows. So one fd.Lattice over the original table, with one memoized
// cardinality cache, finds the same FDs at every step as discovery on
// the built sub-table would, and only the final sub-tables are built.
package normalize

import (
	"math/rand"

	"ogdp/internal/fd"
	"ogdp/internal/stats"
	"ogdp/internal/table"
)

// Result describes one BCNF decomposition.
type Result struct {
	// Original is the input table.
	Original *table.Table
	// FDs are the minimal non-trivial FDs of the original table, as
	// fd.Discover returns them; none means the table is in BCNF.
	FDs []fd.FD
	// Cost is the work of discovering FDs, as fd.DiscoverCost reports
	// it: it counts the original table's search only, not the
	// searches of the decomposition steps.
	Cost fd.Cost
	// Tables is the final decomposition; a single entry means the
	// original was already in BCNF.
	Tables []*table.Table
	// Steps is the number of decomposition steps performed.
	Steps int
	// originalCols maps final sub-table columns back to the original
	// column indices, parallel to Tables.
	originalCols [][]int
}

// InBCNF reports whether the original table was already in BCNF (with
// respect to FDs of bounded LHS size).
func (r *Result) InBCNF() bool { return len(r.Tables) == 1 && r.Steps == 0 }

// maxDepth caps the recursion as a safety net; the textbook algorithm
// terminates on its own because both sub-tables are strictly narrower.
const maxDepth = 64

// Decompose runs the BCNF decomposition of t using FDs with
// |LHS| ≤ maxLHS. The rng drives the uniformly random FD choice of the
// paper's methodology; it must not be nil. Each sub-table is tracked
// as its list of original columns, and its FDs come from the original
// table's cardinality lattice; only the final sub-tables are built.
func Decompose(t *table.Table, maxLHS int, rng *rand.Rand) *Result {
	lat := fd.NewLattice(t)
	res := &Result{Original: t}
	res.FDs, res.Cost = lat.Discover(maxLHS)
	if len(res.FDs) == 0 {
		res.Tables = []*table.Table{t}
		res.originalCols = [][]int{allIndices(t.NumCols())}
		return res
	}
	var leaves [][]int
	stack := [][]int{allIndices(t.NumCols())}
	for depth := 0; len(stack) > 0 && depth < maxDepth; depth++ {
		var next [][]int
		for _, cols := range stack {
			fds := res.FDs
			if depth > 0 {
				fds = lat.DiscoverCols(cols, maxLHS)
			}
			if len(fds) == 0 {
				leaves = append(leaves, cols)
				continue
			}
			chosen := fds[rng.Intn(len(fds))]
			res.Steps++
			next = append(next, splitCols(cols, chosen)...)
		}
		stack = next
	}
	// Anything left if the safety cap was hit is final as it stands.
	leaves = append(leaves, stack...)
	for _, cols := range leaves {
		res.Tables = append(res.Tables, dedupe(t.Project(cols)))
	}
	res.originalCols = leaves
	return res
}

// splitCols applies one decomposition step for FD X → A to a sub-table
// given as its original columns: T1 = X ∪ A and T2 = X ∪ (attr \ A),
// with the FD in the sub-table's local indices.
func splitCols(cols []int, f fd.FD) [][]int {
	cols1 := make([]int, 0, len(f.LHS)+1)
	for _, c := range f.LHS {
		cols1 = append(cols1, cols[c])
	}
	cols1 = append(cols1, cols[f.RHS])
	cols2 := make([]int, 0, len(cols)-1)
	for c, oc := range cols {
		if c != f.RHS {
			cols2 = append(cols2, oc)
		}
	}
	return [][]int{cols1, cols2}
}

// dedupe returns a copy of t with duplicate rows removed (projection
// semantics): the first row of every distinct tuple, in row order.
func dedupe(t *table.Table) *table.Table {
	return t.SelectRows(t.DistinctRows(allIndices(t.NumCols())))
}

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// UniquenessGain computes the paper's "avg uniqueness score increase
// for unrepeated columns": for every original column that appears in
// exactly one final sub-table, the ratio of its uniqueness score after
// decomposition to its score before, averaged. Returns 1 when the
// table was already in BCNF or no column qualifies.
func (r *Result) UniquenessGain() float64 {
	if r.InBCNF() {
		return 1
	}
	// Count appearances of each original column across sub-tables.
	nCols := r.Original.NumCols()
	appear := make([]int, nCols)
	where := make([][2]int, nCols) // original col -> (table idx, col idx)
	for ti, cols := range r.originalCols {
		for ci, oc := range cols {
			appear[oc]++
			where[oc] = [2]int{ti, ci}
		}
	}
	// Sum in ascending column order so the float result is the same
	// on every call.
	var sum float64
	var n int
	for oc, cnt := range appear {
		if cnt != 1 {
			continue // repeated column (an FD LHS): excluded by the paper
		}
		before := r.Original.Profile(oc).Uniqueness()
		if stats.ApproxEq(before, 0) {
			continue
		}
		loc := where[oc]
		after := r.Tables[loc[0]].Profile(loc[1]).Uniqueness()
		sum += after / before
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}
