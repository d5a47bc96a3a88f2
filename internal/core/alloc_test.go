package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"ogdp/internal/ckan"
	"ogdp/internal/classify"
	"ogdp/internal/csvio"
	"ogdp/internal/gen"
	"ogdp/internal/ind"
	"ogdp/internal/join"
	"ogdp/internal/sniff"
	"ogdp/internal/table"
)

// Allocation ceilings of study layers. Each ceiling sits at
// least 1.5x above the value measured when it was set, and below what
// the layer allocated while it still built the buffers or maps each
// test names.

// skipAllocTest skips allocation measurements under -short and under
// the race detector, whose instrumentation allocates and whose
// sync.Pool drops Puts at random.
func skipAllocTest(t *testing.T) {
	t.Helper()
	if testing.Short() || raceEnabled {
		t.Skip("allocation ceilings are measured only in full, race-free runs")
	}
}

// allocBytes returns the bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAllocsGenGenerate (layer gen.generate_s): generating a corpus
// serializes no table into memory. RawSize comes from counting the CSV
// bytes, so what Generate allocates beyond the cells it produces stays
// small next to the CSV those cells make.
func TestAllocsGenGenerate(t *testing.T) {
	skipAllocTest(t)
	const ceiling = 3.3 // bytes beyond the cells per CSV byte; measured 2.18, 5.06 with in-memory CSV
	gen.Generate(gen.US(), 0.02, 1)
	var c *gen.Corpus
	n := allocBytes(func() { c = gen.Generate(gen.US(), 0.02, 1) })
	// The cells' own size: string headers and bytes of every distinct
	// column (duplicate tables share their source's columns).
	var raw, cells int64
	seen := map[*string]bool{}
	for _, m := range c.Metas {
		raw += m.RawSize
		for ci := range m.Table.Cols {
			col := m.Table.Column(ci)
			if len(col) == 0 || seen[&col[0]] {
				continue
			}
			seen[&col[0]] = true
			for _, v := range col {
				cells += int64(unsafe.Sizeof(v)) + int64(len(v))
			}
		}
	}
	if perByte := float64(int64(n)-cells) / float64(raw); perByte > ceiling {
		t.Errorf("gen.Generate allocated %d bytes, %d of them cells, for %d CSV bytes: %.2f extra per byte, ceiling %.1f", n, cells, raw, perByte, ceiling)
	}
}

// TestAllocsFunnelRefetch (layer ckan.funnel_s): once a client has
// crawled a portal, crawling it again reads every body into a pooled
// buffer, so beyond what parsing the bodies costs it allocates no
// body-sized buffers.
func TestAllocsFunnelRefetch(t *testing.T) {
	skipAllocTest(t)
	const ceiling = 0.2 // bytes beyond parsing per body byte; measured 0.12, 1.17 with a fresh buffer per body
	p := funnelPortal()
	srv := httptest.NewServer(ckan.NewServer(p))
	defer srv.Close()
	client := ckan.NewClient(srv.URL)
	client.Workers = 1
	// One P and no GC: sync.Pool then hands each request the buffer
	// the previous one returned, instead of a buffer cached on another
	// P or none at all after a collection emptied the pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if _, _, err := client.FetchAll(); err != nil {
		t.Fatal(err)
	}
	var fetched []*ckan.FetchedTable
	var err error
	n := allocBytes(func() { fetched, _, err = client.FetchAll() })
	if err != nil || len(fetched) != 6 {
		t.Fatalf("second FetchAll: %d tables, %v", len(fetched), err)
	}

	// What parsing the same bodies costs, measured apart from the fetch.
	var bodies [][]byte
	var size int64
	for _, d := range p.Datasets {
		_, _, b := d.Resources[0].Download()
		bodies = append(bodies, b)
		size += int64(len(b))
	}
	parse := allocBytes(func() {
		for i, b := range bodies {
			sniff.Detect(b)
			if _, err := csvio.ReadWith(p.Datasets[i].Resources[0].Name, bytes.NewReader(b), csvio.Options{}); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perByte := (float64(n) - float64(parse)) / float64(size); perByte > ceiling {
		t.Errorf("second FetchAll allocated %d bytes, parsing alone %d, for %d body bytes: %.2f extra per byte, ceiling %.1f", n, parse, size, perByte, ceiling)
	}
}

// TestAllocsFunnelCountOnly (layer ckan.funnel_s): the count-only
// crawl the study's funnel runs parses every body without building a
// table, so all it allocates per body byte, parsing included, stays
// well below what FetchAll's table path allocates.
func TestAllocsFunnelCountOnly(t *testing.T) {
	skipAllocTest(t)
	const ceiling = 2.5 // bytes per body byte; measured 1.62, 5.24 for FetchAll
	p := funnelPortal()
	srv := httptest.NewServer(ckan.NewServer(p))
	defer srv.Close()
	client := ckan.NewClient(srv.URL)
	client.Workers = 1
	// As in TestAllocsFunnelRefetch: the second crawl reuses the first
	// one's pooled body buffers.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	if _, err := client.Funnel(ctx); err != nil {
		t.Fatal(err)
	}
	var st ckan.FunnelStats
	var err error
	n := allocBytes(func() { st, err = client.Funnel(ctx) })
	if err != nil || st.Readable != 6 {
		t.Fatalf("second Funnel: %d readable, %v", st.Readable, err)
	}
	var size int64
	for _, d := range p.Datasets {
		size += d.Resources[0].Size
	}
	if perByte := float64(n) / float64(size); perByte > ceiling {
		t.Errorf("second Funnel allocated %d bytes for %d body bytes: %.2f per byte, ceiling %.1f", n, size, perByte, ceiling)
	}
}

// funnelPortal serves six readable 3000-row tables of five columns.
func funnelPortal() *ckan.Portal {
	p := &ckan.Portal{Name: "T"}
	for i := 0; i < 6; i++ {
		cols := []string{"id", "name", "amount", "region", "note"}
		data := make([][]string, len(cols))
		for c := range data {
			data[c] = make([]string, 3000)
			for r := range data[c] {
				data[c][r] = fmt.Sprintf("%s-%d-%d", cols[c], i, r)
			}
		}
		tb := table.New(fmt.Sprintf("t%d.csv", i), cols, data)
		id := fmt.Sprintf("r%d", i)
		p.Datasets = append(p.Datasets, &ckan.Dataset{ID: "d" + id, Resources: []*ckan.Resource{{
			ID: id, Name: tb.Name, Format: "CSV", URL: "/download/" + id, Table: tb, Size: csvio.Size(tb),
		}}})
	}
	return p
}

// TestAllocsINDFindFlat (layer ind.discover_s): IND discovery keeps
// postings only for the dependent columns' smallest value hashes, so
// on corpora of the same columns and dependencies it allocates no more
// at 5000 distinct values per column than at 50.
func TestAllocsINDFindFlat(t *testing.T) {
	skipAllocTest(t)
	const ceiling = 40 // allocations per call; measured 24 and 20, 430 and 40291 with postings over every hash
	var allocs []float64
	for _, distinct := range []int{50, 5000} {
		// Eight lookup/fact pairs: each fact column holds every other
		// key of its lookup, so it is included in it and not back.
		var tables []*table.Table
		for i := 0; i < 8; i++ {
			keys, facts := make([]string, distinct), make([]string, distinct)
			for r := range keys {
				keys[r] = fmt.Sprintf("k%d-%d", i, r)
				facts[r] = fmt.Sprintf("k%d-%d", i, r/2*2)
			}
			tables = append(tables,
				table.New(fmt.Sprintf("lookup%d.csv", i), []string{"key"}, [][]string{keys}),
				table.New(fmt.Sprintf("fact%d.csv", i), []string{"key"}, [][]string{facts}))
		}
		var inds []ind.IND
		n := testing.AllocsPerRun(5, func() { inds = ind.Find(tables, ind.Options{}) })
		if len(inds) != 8 {
			t.Fatalf("%d distinct values: %d INDs, want 8", distinct, len(inds))
		}
		if n > ceiling {
			t.Errorf("ind.Find at %d distinct values: %v allocations per call, ceiling %d", distinct, n, ceiling)
		}
		allocs = append(allocs, n)
	}
	if allocs[1] > allocs[0] {
		t.Errorf("ind.Find allocations grew with the distinct values: %v at 50, %v at 5000", allocs[0], allocs[1])
	}
}

// TestAllocsSampleJoinPairsFlat (layer classify.label_s): the sampling
// loop allocates per sample, not per attempt, so raising MaxAttempts
// past the point where every pair has been drawn allocates nothing
// more.
func TestAllocsSampleJoinPairsFlat(t *testing.T) {
	skipAllocTest(t)
	const ceiling = 140 // allocations per call; measured 88 at every MaxAttempts
	c := gen.Generate(gen.CA(), 0.05, 1)
	tables := c.Tables()
	pairs := join.Find(tables, join.Options{}).Pairs
	oracle := gen.Truth(c)
	for _, attempts := range []int{2_000, 20_000, 200_000} {
		var samples []classify.SampledPair
		n := testing.AllocsPerRun(5, func() {
			// A quota no corpus fills keeps every attempt running.
			samples = classify.SampleJoinPairs(tables, pairs, oracle,
				classify.SampleOptions{PerCell: 1 << 20, MaxAttempts: attempts}, rand.New(rand.NewSource(1)))
		})
		if len(samples) == 0 {
			t.Fatalf("MaxAttempts %d: no samples from %d pairs", attempts, len(pairs))
		}
		if n > ceiling {
			t.Errorf("SampleJoinPairs with MaxAttempts %d: %v allocations per call, ceiling %d", attempts, n, ceiling)
		}
	}
}

// TestAllocsFDTableOne (layers fd.discover_s, normalize.decompose_s,
// keys.min_key_s): one §4 unit per table counts through one
// cardinality lattice. The key search and each FD's plausibility
// support read the counts the FD search already made, and the search
// infers the counts its cache implies, so the unit allocates far less
// than the FD unit, the key search and the plausibility supports did
// when each counted on fresh partitions.
func TestAllocsFDTableOne(t *testing.T) {
	skipAllocTest(t)
	const ceiling = 12 << 20 // bytes for the 46 tables; measured 7.3 MB, 37.1 MB counting apart
	var tables []*table.Table
	for _, tb := range gen.Generate(gen.US(), 0.05, 4).Tables() {
		if tb.NumRows() < 10 || tb.NumRows() > 10000 || tb.NumCols() < 5 || tb.NumCols() > 20 {
			continue
		}
		// The study builds these caches before its §4 fan-out.
		for c := range tb.Cols {
			tb.Profile(c)
			tb.CanonCodes(c)
		}
		tables = append(tables, tb)
	}
	if len(tables) != 46 {
		t.Fatalf("%d FD-subset tables, want 46", len(tables))
	}
	fds := 0
	n := allocBytes(func() {
		for i, tb := range tables {
			fds += len(fdTableOne(tb, 1, i).fds)
		}
	})
	if fds == 0 {
		t.Fatal("no FDs found")
	}
	if n > ceiling {
		t.Errorf("fdTableOne over %d tables allocated %d bytes, ceiling %d", len(tables), n, ceiling)
	}
}
