package normalize

import (
	"sort"

	"ogdp/internal/fd"
	"ogdp/internal/table"
)

// ThreeNFResult is the outcome of 3NF synthesis.
type ThreeNFResult struct {
	// Original is the input table.
	Original *table.Table
	// Tables is the synthesized decomposition (deduplicated rows).
	Tables []*table.Table
	// Cover is the minimal cover the synthesis used.
	Cover []fd.FD
	// Key is a candidate key of the original schema with respect to
	// the discovered FDs; a relation containing it is added when no
	// synthesized relation does (losslessness).
	Key []int
	// KeyAdded reports whether the key relation had to be added.
	KeyAdded bool
}

// Synthesize3NF decomposes t into third normal form with the textbook
// synthesis algorithm: compute a minimal cover of the discovered FDs
// (|LHS| ≤ maxLHS), create one relation per left-hand side with all
// its dependents, add a candidate-key relation if none contains one,
// and drop subsumed relations. Unlike the paper's BCNF procedure
// (Decompose), synthesis is dependency-preserving: every discovered FD
// is checkable within a single sub-table. The two procedures together
// frame the paper's observation that published tables are pre-joined —
// 3NF synthesis recovers the base tables without losing constraints.
func Synthesize3NF(t *table.Table, maxLHS int) *ThreeNFResult {
	res := &ThreeNFResult{Original: t}
	fds := fd.Discover(t, maxLHS)
	if len(fds) == 0 {
		res.Tables = []*table.Table{t}
		return res
	}
	cover := minimalCover(fds, t.NumCols())
	res.Cover = cover

	// Group the cover by LHS.
	type group struct {
		lhs   []int
		attrs map[int]bool
	}
	groups := map[string]*group{}
	keyOf := func(lhs []int) string {
		k := ""
		for _, a := range lhs {
			k += string(rune('A' + a))
		}
		return k
	}
	for _, f := range cover {
		k := keyOf(f.LHS)
		g := groups[k]
		if g == nil {
			g = &group{lhs: f.LHS, attrs: map[int]bool{}}
			for _, a := range f.LHS {
				g.attrs[a] = true
			}
			groups[k] = g
		}
		g.attrs[f.RHS] = true
	}

	// Candidate key of the schema under the cover.
	res.Key = candidateKey(cover, t.NumCols())

	// Materialize relations (sorted for determinism), dropping those
	// subsumed by another.
	var schemas [][]int
	var gkeys []string
	for k := range groups {
		gkeys = append(gkeys, k)
	}
	sort.Strings(gkeys)
	for _, k := range gkeys {
		schemas = append(schemas, sortedAttrs(groups[k].attrs))
	}
	// Key relation if no schema contains the key.
	hasKey := false
	for _, s := range schemas {
		if containsAll(s, res.Key) {
			hasKey = true
			break
		}
	}
	if !hasKey {
		schemas = append(schemas, append([]int(nil), res.Key...))
		res.KeyAdded = true
	}
	schemas = dropSubsumed(schemas)

	for _, s := range schemas {
		res.Tables = append(res.Tables, t.DistinctProject(s))
	}
	return res
}

// minimalCover left-reduces each FD and removes redundant FDs.
func minimalCover(fds []fd.FD, nCols int) []fd.FD {
	cover := append([]fd.FD(nil), fds...)

	// Left-reduce: drop extraneous LHS attributes.
	for i := range cover {
		lhs := append([]int(nil), cover[i].LHS...)
		changed := true
		for changed {
			changed = false
			for j := 0; j < len(lhs); j++ {
				reduced := append(append([]int(nil), lhs[:j]...), lhs[j+1:]...)
				if inClosure(reduced, cover[i].RHS, cover, nCols) {
					lhs = reduced
					changed = true
					break
				}
			}
		}
		cover[i].LHS = lhs
	}

	// Remove redundant FDs: f is redundant when cover \ {f} implies it.
	for i := 0; i < len(cover); i++ {
		rest := append(append([]fd.FD(nil), cover[:i]...), cover[i+1:]...)
		if inClosure(cover[i].LHS, cover[i].RHS, rest, nCols) {
			cover = rest
			i--
		}
	}
	return cover
}

// inClosure reports whether rhs ∈ closure(lhs) under fds.
func inClosure(lhs []int, rhs int, fds []fd.FD, nCols int) bool {
	closure := make([]bool, nCols)
	for _, a := range lhs {
		closure[a] = true
	}
	changed := true
	for changed {
		changed = false
		for _, f := range fds {
			if closure[f.RHS] {
				continue
			}
			all := true
			for _, a := range f.LHS {
				if !closure[a] {
					all = false
					break
				}
			}
			if all {
				closure[f.RHS] = true
				changed = true
			}
		}
	}
	return closure[rhs]
}

// candidateKey finds a minimal attribute set whose closure is the full
// schema, by shrinking from all attributes.
func candidateKey(fds []fd.FD, nCols int) []int {
	key := make([]int, nCols)
	for i := range key {
		key[i] = i
	}
	for i := 0; i < len(key); {
		reduced := append(append([]int(nil), key[:i]...), key[i+1:]...)
		if closureIsFull(reduced, fds, nCols) {
			key = reduced
		} else {
			i++
		}
	}
	return key
}

func closureIsFull(lhs []int, fds []fd.FD, nCols int) bool {
	for a := 0; a < nCols; a++ {
		if !inClosure(lhs, a, fds, nCols) {
			return false
		}
	}
	return true
}

func sortedAttrs(set map[int]bool) []int {
	var out []int
	for a := range set {
		out = append(out, a)
	}
	sort.Ints(out)
	return out
}

func containsAll(super, sub []int) bool {
	in := map[int]bool{}
	for _, a := range super {
		in[a] = true
	}
	for _, a := range sub {
		if !in[a] {
			return false
		}
	}
	return true
}

// dropSubsumed removes schemas contained in another schema.
func dropSubsumed(schemas [][]int) [][]int {
	var out [][]int
	for i, s := range schemas {
		subsumed := false
		for j, o := range schemas {
			if i == j {
				continue
			}
			if len(s) < len(o) && containsAll(o, s) {
				subsumed = true
				break
			}
			if len(s) == len(o) && j < i && containsAll(o, s) {
				subsumed = true // exact duplicate: keep the first
				break
			}
		}
		if !subsumed {
			out = append(out, s)
		}
	}
	return out
}
