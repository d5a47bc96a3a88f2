package fd

import (
	"ogdp/internal/table"
)

// DiscoverTANE finds the same minimal non-trivial FDs as Discover
// using the TANE algorithm (Huhtala, Kärkkäinen, Porkka, Toivonen,
// 1999): levelwise search over attribute sets with stripped-partition
// products for validity checking and C⁺ candidate sets for pruning.
// The product π_X · π_{a} is table.Partitioner.Refine, the kernel
// Discover's card(X) also runs on; unlike Discover, TANE keeps the
// partition of every set it visits, as the algorithm does.
// The paper's related work (§7, via [31]) notes any exact algorithm is
// interchangeable for its analysis; this implementation exists to
// demonstrate that and to serve as a second engine in the FD-algorithm
// ablation bench.
func DiscoverTANE(t *table.Table, maxLHS int) []FD {
	nCols := t.NumCols()
	nRows := t.NumRows()
	if nCols == 0 || nCols > MaxColumns || nRows == 0 || maxLHS < 1 {
		return nil
	}
	e := newEngine(t)

	full := attrset(0)
	for a := 0; a < nCols; a++ {
		full = full.with(a)
	}

	var fds []FD
	emit := func(lhs attrset, rhs int) {
		fds = append(fds, FD{LHS: lhs.members(nCols), RHS: rhs})
	}

	// Level 1: singleton partitions; C+(X) starts as the full schema.
	parts := map[attrset]*table.Partition{}
	cplus := map[attrset]attrset{}
	var level []attrset
	cplus[0] = full
	for a := 0; a < nCols; a++ {
		s := attrset(0).with(a)
		parts[s] = e.column(a)
		level = append(level, s)
	}

	// The empty set's partition has one class of all rows; ∅ → A holds
	// iff A is constant. Handle it directly (TANE's level-1 special
	// case) so constant columns are reported with an empty LHS.
	for a := 0; a < nCols; a++ {
		s := attrset(0).with(a)
		if nRows > 1 && parts[s].Err() == nRows-1 {
			emit(0, a)
			// A is constant: no minimal FD with A on the LHS side adds
			// information, and X → A is non-minimal for any X ≠ ∅.
		}
	}

	computeCplus := func(x attrset) attrset {
		c := full
		for a := 0; a < nCols; a++ {
			if !x.has(a) {
				continue
			}
			sub, ok := cplus[x.without(a)]
			if !ok {
				return 0
			}
			c &= sub
		}
		return c
	}

	for size := 1; size <= maxLHS+1 && len(level) > 0; size++ {
		// Compute dependencies for this level.
		for _, x := range level {
			cplus[x] = computeCplus(x)
			cand := cplus[x] & x
			for a := 0; a < nCols; a++ {
				if !cand.has(a) {
					continue
				}
				lhs := x.without(a)
				if partitionsEqualError(parts, e, lhs, x) {
					// lhs → a is a valid minimal FD; suppress the paper's
					// trivial cases: constant columns were handled at ∅,
					// and superkey LHSs are trivial.
					lhsIsSuperkey := lhs == 0 || partErr(parts, e, lhs) == 0
					constant := nRows > 1 && partErr(parts, e, attrset(0).with(a)) == nRows-1
					if !lhsIsSuperkey && !constant && len(lhs.members(nCols)) <= maxLHS {
						emit(lhs, a)
					}
					cplus[x] = cplus[x].without(a)
					// Remove R \ X from C+(X).
					cplus[x] &= x
				}
			}
		}
		// Prune.
		var pruned []attrset
		for _, x := range level {
			if cplus[x] == 0 {
				continue
			}
			if partErr(parts, e, x) == 0 {
				// X is a (super)key: TANE would emit its dependents as
				// trivial FDs; the paper excludes them, so just prune.
				continue
			}
			pruned = append(pruned, x)
		}
		// Generate the next level by prefix join.
		if size >= maxLHS+1 {
			break
		}
		next := generateNextLevel(pruned, nCols)
		for _, x := range next {
			// π_X = π_Y · π_Z for two size-(k) subsets; use any split.
			a := firstMember(x, nCols)
			y := x.without(a)
			if parts[x] == nil && parts[y] != nil {
				p := &table.Partition{}
				e.z.Refine(p, parts[y], e.codes[a], e.codeSizes[a])
				parts[x] = p
			}
		}
		level = next
	}

	// Deduplicate and sort: C+ pruning already guarantees minimality,
	// but emissions can arrive in any order.
	sortFDs(fds)
	return dedupeFDs(fds)
}

func dedupeFDs(fds []FD) []FD {
	var out []FD
	seen := map[string]bool{}
	for _, f := range fds {
		k := f.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, f)
	}
	return out
}

func firstMember(s attrset, nCols int) int {
	for a := 0; a < nCols; a++ {
		if s.has(a) {
			return a
		}
	}
	return -1
}

// generateNextLevel joins same-size sets sharing all but their last
// attribute (apriori prefix join) and keeps candidates whose every
// subset survived pruning.
func generateNextLevel(level []attrset, nCols int) []attrset {
	inLevel := map[attrset]bool{}
	for _, x := range level {
		inLevel[x] = true
	}
	seen := map[attrset]bool{}
	var next []attrset
	for i := 0; i < len(level); i++ {
		for j := i + 1; j < len(level); j++ {
			u := level[i] | level[j]
			if u.size() != level[i].size()+1 {
				continue
			}
			if seen[u] {
				continue
			}
			seen[u] = true
			ok := true
			for a := 0; a < nCols; a++ {
				if u.has(a) && !inLevel[u.without(a)] {
					ok = false
					break
				}
			}
			if ok {
				next = append(next, u)
			}
		}
	}
	return next
}

// partErr returns the partition error of x, computing (and caching)
// the partition from the engine's codes when the levelwise products
// did not materialize it.
func partErr(parts map[attrset]*table.Partition, e *engine, x attrset) int {
	if x == 0 {
		if e.nRows == 0 {
			return 0
		}
		return e.nRows - 1
	}
	if p, ok := parts[x]; ok && p != nil {
		return p.Err()
	}
	// |π_X| = card(X) ⇒ Err = nRows - card(X).
	return e.nRows - e.card(x)
}

func partitionsEqualError(parts map[attrset]*table.Partition, e *engine, lhs, x attrset) bool {
	return partErr(parts, e, lhs) == partErr(parts, e, x)
}
