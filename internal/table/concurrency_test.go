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
			tb.DistinctRows([]int{0, 1})
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

// TestProjectSharesPublishedCaches: projecting a table must hand the
// child the parent's already-published (immutable) encodings and
// profiles instead of recomputing them.
func TestProjectSharesPublishedCaches(t *testing.T) {
	tb := stressTable(5, 50)
	for c := 0; c < tb.NumCols(); c++ {
		tb.Profile(c)
	}

	obs := newCountingObserver()
	SetBuildObserver(obs)
	t.Cleanup(func() { SetBuildObserver(nil) })

	proj := tb.Project([]int{3, 1})
	if proj.Encoding(0) != tb.Encoding(3) || proj.Encoding(1) != tb.Encoding(1) {
		t.Error("projection did not share the parent's published encodings")
	}
	if proj.Profile(0) != tb.Profile(3) || proj.Profile(1) != tb.Profile(1) {
		t.Error("projection did not share the parent's published profiles")
	}
	if n := obs.builds(BuildEncode) + obs.builds(BuildProfile); n != 0 {
		t.Errorf("projection rebuilt %d shared caches", n)
	}
}

// TestInvalidateProfilesPublishesFreshGeneration: invalidation must
// swap in a whole new cache generation — later accessors rebuild and
// republish rather than seeing stale values.
func TestInvalidateProfilesPublishesFreshGeneration(t *testing.T) {
	tb := stressTable(3, 40)
	before := tb.Profile(1)
	keyBefore := tb.SchemaKey()

	tb.InvalidateProfiles()
	after := tb.Profile(1)
	if after == before {
		t.Error("InvalidateProfiles left the old *ColumnProfile published")
	}
	if !reflect.DeepEqual(after, before) {
		t.Error("rebuilt profile differs in value from the original")
	}
	if tb.SchemaKey() != keyBefore {
		t.Error("schema key changed across invalidation of an unchanged table")
	}
}
