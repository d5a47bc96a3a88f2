package table

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// countingObserver tallies the slow-path build events of the lazy
// column caches, split into actual builds and wait-outs.
type countingObserver struct {
	mu     sync.Mutex
	built  map[string]int
	waited map[string]int
}

func newCountingObserver() *countingObserver {
	return &countingObserver{built: map[string]int{}, waited: map[string]int{}}
}

func (o *countingObserver) BuildStart(kind string) func(built bool) {
	return func(built bool) {
		o.mu.Lock()
		defer o.mu.Unlock()
		if built {
			o.built[kind]++
		} else {
			o.waited[kind]++
		}
	}
}

func (o *countingObserver) builds(kind string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.built[kind]
}

func stressTable(cols, rows int) *Table {
	header := make([]string, cols)
	data := make([][]string, rows)
	for c := range header {
		header[c] = fmt.Sprintf("c%d", c)
	}
	for r := range data {
		row := make([]string, cols)
		for c := range row {
			row[c] = fmt.Sprintf("v%d", (r*31+c*7)%(10+c*5))
		}
		data[r] = row
	}
	return FromRows("stress.csv", header, data)
}

// TestConcurrentBuildExactlyOnce is the publication contract under
// fire: many goroutines hammer every lazy accessor of a shared table
// and each cache must be built exactly once per column (once per
// table for the schema key), with every goroutine observing the same
// published pointer. Run under -race this also proves the fast paths
// are data-race-free.
func TestConcurrentBuildExactlyOnce(t *testing.T) {
	const goroutines = 16
	obs := newCountingObserver()
	SetBuildObserver(obs)
	t.Cleanup(func() { SetBuildObserver(nil) })

	tb := stressTable(6, 300)
	nc := tb.NumCols()

	type view struct {
		encs  []*Encoding
		profs []*ColumnProfile
		key   string
	}
	views := make([]view, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			v := view{encs: make([]*Encoding, nc), profs: make([]*ColumnProfile, nc)}
			for c := 0; c < nc; c++ {
				// Interleave accessor order per goroutine so builds race
				// through different entry points (Profile pulls in the
				// encoding, CanonCodes pulls it in via Encoding).
				if g%2 == 0 {
					v.profs[c] = tb.Profile(c)
					v.encs[c] = tb.Encoding(c)
				} else {
					v.encs[c] = tb.Encoding(c)
					v.profs[c] = tb.Profile(c)
				}
				tb.CanonCodes(c)
				tb.DistinctCount([]int{c})
			}
			tb.DistinctCount([]int{0, 1})
			tb.DistinctProject([]int{0, 1})
			v.key = tb.SchemaKey()
			views[g] = v
		}(g)
	}
	wg.Wait()

	for g := 1; g < goroutines; g++ {
		for c := 0; c < nc; c++ {
			if views[g].encs[c] != views[0].encs[c] {
				t.Fatalf("goroutine %d observed a different *Encoding for column %d", g, c)
			}
			if views[g].profs[c] != views[0].profs[c] {
				t.Fatalf("goroutine %d observed a different *ColumnProfile for column %d", g, c)
			}
		}
		if views[g].key != views[0].key {
			t.Fatalf("goroutine %d observed schema key %q, goroutine 0 %q", g, views[g].key, views[0].key)
		}
	}

	for _, want := range []struct {
		kind string
		n    int
	}{
		{BuildEncode, nc},
		{BuildProfile, nc},
		{BuildCanon, nc},
		{BuildSchemaKey, 1},
	} {
		if got := obs.builds(want.kind); got != want.n {
			t.Errorf("%s built %d times, want exactly %d", want.kind, got, want.n)
		}
	}
}

// TestCanonCodesConcurrentIdentical checks the canon stream built
// under contention matches a cold sequential build value-for-value.
func TestCanonCodesConcurrentIdentical(t *testing.T) {
	hot := stressTable(4, 200)
	cold := stressTable(4, 200)

	var wg sync.WaitGroup
	got := make([][]uint32, 8)
	sizes := make([]int, 8)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], sizes[g] = hot.CanonCodes(g % hot.NumCols())
		}(g)
	}
	wg.Wait()

	for g := range got {
		wantCodes, wantSize := cold.CanonCodes(g % cold.NumCols())
		if sizes[g] != wantSize || !reflect.DeepEqual(got[g], wantCodes) {
			t.Fatalf("concurrent canon stream for column %d differs from sequential", g%hot.NumCols())
		}
	}
}

// TestProjectSharesPublishedCaches: a projection that drops no row
// must hand the child the parent's already-published (immutable)
// encodings and profiles instead of recomputing them; one that drops
// rows gathers them and builds its own.
func TestProjectSharesPublishedCaches(t *testing.T) {
	tb := stressTable(5, 50)
	for c := 0; c < tb.NumCols(); c++ {
		tb.Profile(c)
	}

	obs := newCountingObserver()
	SetBuildObserver(obs)
	t.Cleanup(func() { SetBuildObserver(nil) })

	proj := tb.DistinctProject([]int{3, 1}) // every (c3, c1) pair is distinct
	if proj.NumRows() != tb.NumRows() {
		t.Fatalf("projection has %d rows, want all %d", proj.NumRows(), tb.NumRows())
	}
	if proj.Encoding(0) != tb.Encoding(3) || proj.Encoding(1) != tb.Encoding(1) {
		t.Error("projection did not share the parent's published encodings")
	}
	if proj.Profile(0) != tb.Profile(3) || proj.Profile(1) != tb.Profile(1) {
		t.Error("projection did not share the parent's published profiles")
	}
	if n := obs.builds(BuildEncode) + obs.builds(BuildProfile); n != 0 {
		t.Errorf("projection rebuilt %d shared caches", n)
	}

	dedup := tb.DistinctProject([]int{0, 2}) // the pair repeats every 20 rows
	if dedup.NumRows() != 20 {
		t.Fatalf("deduplicated projection has %d rows, want 20", dedup.NumRows())
	}
	if dedup.Encoding(0) == tb.Encoding(0) || dedup.Profile(1) == tb.Profile(2) {
		t.Error("deduplicated projection shares the parent's caches over all its rows")
	}
}

// TestViewsProfileConcurrently: a table and two DistinctProject views
// of it, one dropping no row (it shares cell slices and the caches
// published before it) and one keeping 20 of 300 rows (it shares the
// cell strings), and goroutines profile all of them at once. Every profile
// must equal a cold sequential build of the same view; under -race
// this also shows the shared cells are only read.
func TestViewsProfileConcurrently(t *testing.T) {
	const goroutines = 8
	views := func() []*Table {
		tb := stressTable(5, 300)
		tb.Profile(0) // published before projecting, so the shared view takes it
		return []*Table{tb, tb.DistinctProject([]int{4, 0, 3, 2}), tb.DistinctProject([]int{2, 0})}
	}
	hot := views()

	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := range hot {
				v := hot[(i+g)%len(hot)]
				for c := 0; c < v.NumCols(); c++ {
					v.Profile((c + g) % v.NumCols())
				}
			}
		}(g)
	}
	wg.Wait()

	for i, cold := range views() {
		for c := 0; c < cold.NumCols(); c++ {
			if !sameProfile(hot[i].Profile(c), cold.Profile(c)) {
				t.Fatalf("view %d, column %d: concurrent profile differs from a sequential one", i, c)
			}
		}
	}
}

// sameProfile reports whether two profiles agree in every field and
// their encodings in content. DeepEqual would compare the encodings'
// lazily published canonical streams by address.
func sameProfile(a, b *ColumnProfile) bool {
	x, y := *a, *b
	x.enc, y.enc = nil, nil
	return x == y && reflect.DeepEqual(valueOf(a.enc), valueOf(b.enc))
}

// encodingValue is a deep copy of an Encoding's contents.
type encodingValue struct {
	dict       []string
	codes      []uint32
	counts     []int32
	null       []bool
	nulls      int
	hashes     []uint64
	hashCounts []int32
}

func valueOf(e *Encoding) encodingValue {
	return encodingValue{
		dict:       append([]string(nil), e.Dict...),
		codes:      append([]uint32(nil), e.Codes...),
		counts:     append([]int32(nil), e.DictCounts...),
		null:       append([]bool(nil), e.DictNull...),
		nulls:      e.nulls,
		hashes:     append([]uint64(nil), e.hashes...),
		hashCounts: append([]int32(nil), e.hashCounts...),
	}
}

// TestEncodePoolConcurrent: goroutines encode and profile one shared
// table and tables of their own at once, all on pooled scratch. Every
// encoding and profile must equal a cold sequential build, and must
// still equal it after the pool has been reused many times over, which
// it would not if an output aliased scratch.
func TestEncodePoolConcurrent(t *testing.T) {
	const goroutines = 8
	rowsOf := func(g int) int { return 50 + 97*g }
	shared := stressTable(6, 400)
	tables := make([]*Table, goroutines)
	for g := range tables {
		tables[g] = stressTable(6, rowsOf(g))
	}

	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for c := 0; c < 6; c++ {
				// Opposite column orders make the shared table's builds
				// race.
				sc := c
				if g%2 == 1 {
					sc = 5 - c
				}
				shared.Profile(sc)
				tables[g].Profile(c)
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < 50; i++ { // churn the pool
		encodeColumn(stressTable(1, 200+i).Column(0))
	}

	check := func(got *Table, rows int) {
		t.Helper()
		cold := stressTable(6, rows)
		for c := 0; c < 6; c++ {
			if !reflect.DeepEqual(valueOf(got.Encoding(c)), valueOf(cold.Encoding(c))) {
				t.Fatalf("%d-row table, column %d: concurrent encoding differs from a sequential one", rows, c)
			}
			if !reflect.DeepEqual(got.Profile(c), cold.Profile(c)) {
				t.Fatalf("%d-row table, column %d: concurrent profile differs from a sequential one", rows, c)
			}
		}
	}
	check(shared, 400)
	for g, tb := range tables {
		check(tb, rowsOf(g))
	}
}
