package fd

import (
	"slices"
	"sort"

	"ogdp/internal/table"
)

// ApproxFD is a functional dependency that holds after removing at
// most Error fraction of the rows (the g3 error measure). Real OGDP
// tables often contain a handful of dirty rows that break an otherwise
// real dependency; approximate discovery recovers those, one of the
// follow-up directions the paper's §4.3 discussion motivates.
type ApproxFD struct {
	FD
	// Error is the g3 measure: the minimum fraction of rows whose
	// removal makes the FD exact. 0 means the FD holds exactly.
	Error float64
}

// DiscoverApproximate finds FDs with g3 error ≤ maxError and
// |LHS| ≤ maxLHS. Exact FDs (error 0) are included. Minimality is with
// respect to the error threshold: an LHS is reported only if no proper
// subset already satisfies the threshold for the same RHS.
//
// The search enumerates LHS candidates levelwise; unlike exact
// discovery it cannot prune with cardinality comparisons alone, so it
// is more expensive — intended for the same bounded tables as the
// paper's FD analysis (≤ 20 columns, ≤ 10000 rows).
func DiscoverApproximate(t *table.Table, maxLHS int, maxError float64) []ApproxFD {
	nCols := t.NumCols()
	nRows := t.NumRows()
	if nCols == 0 || nCols > MaxColumns || nRows == 0 || maxLHS < 1 || maxError < 0 {
		return nil
	}
	e := newEngine(t)

	var out []ApproxFD
	minimalFor := make([][]attrset, nCols)
	emit := func(lhs attrset, rhs int, g3 float64) {
		for _, prev := range minimalFor[rhs] {
			if prev&lhs == prev {
				return
			}
		}
		minimalFor[rhs] = append(minimalFor[rhs], lhs)
		out = append(out, ApproxFD{FD: FD{LHS: lhs.members(nCols), RHS: rhs}, Error: g3})
	}

	for _, x := range enumerateSets(nCols, maxLHS) {
		if e.card(x) == nRows {
			continue // superkey LHS: trivial
		}
		for a := 0; a < nCols; a++ {
			if x.has(a) {
				continue
			}
			g3 := e.g3Error(x, a)
			if g3 <= maxError {
				emit(x, a, g3)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
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
	return out
}

// g3Error computes the g3 measure of X → a: partition the rows by X;
// within each class the rows that keep the majority a value stay, the
// rest must be removed. With X empty all rows form one class.
func (e *engine) g3Error(x attrset, a int) float64 {
	var keep int
	if x == 0 {
		counts := make([]int, e.codeSizes[a])
		for _, c := range e.codes[a] {
			counts[c]++
		}
		keep = slices.Max(counts)
	} else {
		keep = e.z.Majority(e.partition(x), e.nRows, e.codes[a], e.codeSizes[a])
	}
	return float64(e.nRows-keep) / float64(e.nRows)
}

// G3Error computes the g3 error of an arbitrary FD on a table: the
// minimum fraction of rows to remove for the FD to hold exactly.
func G3Error(t *table.Table, f FD) float64 {
	if t.NumRows() == 0 {
		return 0
	}
	e := newEngine(t)
	return e.g3Error(setOf(f.LHS), f.RHS)
}
