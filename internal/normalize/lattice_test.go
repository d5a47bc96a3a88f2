package normalize

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ogdp/internal/csvio"
	"ogdp/internal/fd"
	"ogdp/internal/gen"
	"ogdp/internal/table"
)

// pinnedScale is the corpus scale rootCardinalities was measured at.
const pinnedScale = 0.05

// corpusSpec sizes the reference comparison: four portals at
// pinnedScale for seeds 1-3, or one smaller seed under -race.
func corpusSpec() (scale float64, seeds []int64) {
	if raceEnabled {
		return 0.02, []int64{1}
	}
	return pinnedScale, []int64{1, 2, 3}
}

// rootCardinalities pins, per study seed and portal (in gen.Profiles
// order), the summed fd.Cost.Cardinalities of the root FD searches
// over the FD subset at pinnedScale: the study's
// ogdp_fd_cardinalities_total counter.
var rootCardinalities = map[int64][]int{
	1: {162, 3124, 7748, 49367},
	2: {118, 2958, 16689, 25268},
	3: {214, 17743, 9921, 31012},
}

// fdFixture is one table of a generated portal's FD subset.
type fdFixture struct {
	name   string
	seed   int64 // study seed
	portal int   // index into gen.Profiles
	t      *table.Table
}

// fdFixtures generates the four portals for every seed the way the
// study does (portal i at seed+i) and returns the tables the study's
// FD analysis takes: 10..10000 rows and 5..20 columns.
func fdFixtures(tb testing.TB, scale float64, seeds []int64) []fdFixture {
	tb.Helper()
	var out []fdFixture
	for _, seed := range seeds {
		for i, p := range gen.Profiles() {
			c := gen.Generate(p, scale, seed+int64(i))
			for j, t := range c.Tables() {
				if t.NumRows() < 10 || t.NumRows() > 10000 || t.NumCols() < 5 || t.NumCols() > 20 {
					continue
				}
				name := fmt.Sprintf("seed%d/%s/%d", seed, p.Name, j)
				out = append(out, fdFixture{name: name, seed: seed, portal: i, t: t})
			}
		}
	}
	if len(out) == 0 {
		tb.Fatal("no FD tables generated")
	}
	return out
}

// refStep is one sub-table the reference decomposition visited: its
// original columns and the FDs discovered on it as built.
type refStep struct {
	orig []int
	fds  []fd.FD
}

// referenceDecompose is the build-and-rediscover BCNF algorithm the
// lattice replaced: every split builds both deduplicated sub-tables
// and runs fd.Discover on each from scratch. It records every
// sub-table it visits.
func referenceDecompose(t *table.Table, maxLHS int, rng *rand.Rand) (*Result, []refStep) {
	res := &Result{Original: t}
	var steps []refStep
	type work struct {
		t    *table.Table
		orig []int
	}
	stack := []work{{t: t, orig: allIndices(t.NumCols())}}
	for depth := 0; len(stack) > 0 && depth < maxDepth; depth++ {
		var next []work
		for _, w := range stack {
			fds := fd.Discover(w.t, maxLHS)
			steps = append(steps, refStep{orig: w.orig, fds: fds})
			if len(fds) == 0 {
				res.Tables = append(res.Tables, w.t)
				res.originalCols = append(res.originalCols, w.orig)
				continue
			}
			f := fds[rng.Intn(len(fds))]
			res.Steps++
			cols1 := append(append([]int(nil), f.LHS...), f.RHS)
			var cols2 []int
			for c := 0; c < w.t.NumCols(); c++ {
				if c != f.RHS {
					cols2 = append(cols2, c)
				}
			}
			for _, cols := range [][]int{cols1, cols2} {
				orig := make([]int, len(cols))
				for k, c := range cols {
					orig[k] = w.orig[c]
				}
				next = append(next, work{t: dedupe(w.t.Project(cols)), orig: orig})
			}
		}
		stack = next
	}
	for _, w := range stack {
		res.Tables = append(res.Tables, w.t)
		res.originalCols = append(res.originalCols, w.orig)
	}
	return res, steps
}

// TestDecomposeMatchesReferenceOnCorpora runs the lattice-based
// Decompose and the build-and-rediscover reference side by side on the
// generated portals. At every sub-table the reference visits, the
// lattice's FDs for its column list must equal fd.Discover on the
// built sub-table; the results must agree in steps, column lists,
// sub-table bytes and uniqueness gain; and the root cost must be the
// study's pinned cardinality count.
func TestDecomposeMatchesReferenceOnCorpora(t *testing.T) {
	scale, seeds := corpusSpec()
	fixtures := fdFixtures(t, scale, seeds)
	cards := map[int64][]int{}
	decomposed := 0
	for k, fx := range fixtures {
		rngSeed := int64(1000*fx.seed) + int64(k)
		got := Decompose(fx.t, fd.MaxLHS, rand.New(rand.NewSource(rngSeed)))
		want, steps := referenceDecompose(fx.t, fd.MaxLHS, rand.New(rand.NewSource(rngSeed)))

		if !reflect.DeepEqual(got.FDs, steps[0].fds) {
			t.Fatalf("%s: root FDs %v, reference %v", fx.name, got.FDs, steps[0].fds)
		}
		if cards[fx.seed] == nil {
			cards[fx.seed] = make([]int, len(gen.Profiles()))
		}
		cards[fx.seed][fx.portal] += got.Cost.Cardinalities
		// Every later step is a deduplicated projection of the table.
		lat := fd.NewLattice(fx.t)
		for _, st := range steps[1:] {
			if viaLattice := lat.DiscoverCols(st.orig, fd.MaxLHS); !reflect.DeepEqual(viaLattice, st.fds) {
				t.Fatalf("%s cols %v: lattice FDs %v, built sub-table FDs %v", fx.name, st.orig, viaLattice, st.fds)
			}
		}

		if got.Steps != want.Steps || !reflect.DeepEqual(got.originalCols, want.originalCols) {
			t.Fatalf("%s: steps %d cols %v, reference steps %d cols %v",
				fx.name, got.Steps, got.originalCols, want.Steps, want.originalCols)
		}
		for i := range got.Tables {
			if !bytes.Equal(csvio.Bytes(got.Tables[i]), csvio.Bytes(want.Tables[i])) {
				t.Fatalf("%s: sub-table %d (cols %v) differs from the reference", fx.name, i, got.originalCols[i])
			}
		}
		if g, w := got.UniquenessGain(), want.UniquenessGain(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: gain %v, reference %v", fx.name, g, w)
		}
		if !got.InBCNF() {
			decomposed++
		}
	}
	if decomposed == 0 {
		t.Fatal("no fixture table was decomposed")
	}
	if scale != pinnedScale {
		return
	}
	for seed, want := range rootCardinalities {
		if got, ok := cards[seed]; ok && !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: root cardinalities per portal %v, want %v", seed, got, want)
		}
	}
}

// TestUniquenessGainIsStable calls UniquenessGain repeatedly on every
// decomposed fixture table: the sum runs in column order, so every
// call returns the same bits.
func TestUniquenessGainIsStable(t *testing.T) {
	scale, seeds := corpusSpec()
	for k, fx := range fdFixtures(t, scale, seeds[:1]) {
		res := Decompose(fx.t, fd.MaxLHS, rand.New(rand.NewSource(int64(k))))
		if res.InBCNF() {
			continue
		}
		first := math.Float64bits(res.UniquenessGain())
		for i := 0; i < 100; i++ {
			if got := math.Float64bits(res.UniquenessGain()); got != first {
				t.Fatalf("%s: call %d returned %v, first call %v",
					fx.name, i, math.Float64frombits(got), math.Float64frombits(first))
			}
		}
	}
}
