package search

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strconv"
	"testing"

	"ogdp/internal/gen"
	"ogdp/internal/obs"
	"ogdp/internal/table"
)

// rankCorpus builds a small corpus with planted structure: a master
// table, a transaction table sharing its id column, a schema twin of
// the transaction table, and an unrelated table.
func rankCorpus() []*table.Table {
	var master, tx, twin, other [][]string
	for i := 0; i < 30; i++ {
		master = append(master, []string{strconv.Itoa(1000 + i), fmt.Sprintf("station %d", i)})
	}
	for i := 0; i < 30; i++ {
		tx = append(tx, []string{strconv.Itoa(1000 + i), strconv.Itoa(i * 3)})
		twin = append(twin, []string{strconv.Itoa(1000 + i), strconv.Itoa(i * 5)})
	}
	for i := 0; i < 30; i++ {
		other = append(other, []string{fmt.Sprintf("color-%d", i), strconv.Itoa(i)})
	}
	return []*table.Table{
		table.FromRows("master.csv", []string{"station_id", "name"}, master),
		table.FromRows("tx-2019.csv", []string{"station_id", "count"}, tx),
		table.FromRows("tx-2020.csv", []string{"station_id", "count"}, twin),
		table.FromRows("other.csv", []string{"color", "weight"}, other),
	}
}

func TestRankTablesOrdersPlantedStructure(t *testing.T) {
	corpus := rankCorpus()
	e := New(corpus, Options{})
	hs := e.RankTables(corpus[1], 10, 1) // query: tx-2019.csv

	if len(hs) < 2 {
		t.Fatalf("RankTables = %d hypotheses, want at least master and twin", len(hs))
	}
	// The schema twin shares values AND the exact schema; it must come
	// first, with the master (value overlap only) next. The unrelated
	// table shares nothing and must be absent.
	if hs[0].Table != 2 || !hs[0].SameSchema {
		t.Errorf("top hypothesis = %+v, want schema twin table 2", hs[0])
	}
	if hs[1].Table != 0 || hs[1].SameSchema {
		t.Errorf("second hypothesis = %+v, want master table 0", hs[1])
	}
	for _, h := range hs {
		if h.Table == 3 {
			t.Errorf("unrelated table ranked: %+v", h)
		}
		if h.Table == 1 {
			t.Errorf("excluded query table ranked: %+v", h)
		}
	}
	if hs[0].QueryCol != 0 || hs[0].CandCol != 0 || hs[0].Overlap != 30 {
		t.Errorf("twin join evidence = %+v, want station_id~station_id overlap 30", hs[0])
	}
	if hs[0].Containment < 1 {
		t.Errorf("twin containment = %v, want 1", hs[0].Containment)
	}
}

func TestRankTablesDeterministicAcrossBuilds(t *testing.T) {
	corpus := rankCorpus()
	a := New(corpus, Options{})
	b := New(corpus, Options{})
	for ti := range corpus {
		ha := a.RankTables(corpus[ti], 10, ti)
		hb := b.RankTables(corpus[ti], 10, ti)
		if !reflect.DeepEqual(ha, hb) {
			t.Errorf("table %d: rankings differ across engine builds:\n%+v\n%+v", ti, ha, hb)
		}
	}
}

// rankedGolden pins RankTables' output on the four study portals
// (scale 0.1, seed 1): an FNV-64a digest over every table's top-10
// hypotheses, every field included. The constants were captured
// before the engine lost its LSH candidate stage, when UK (732
// indexed columns) and US (947) ranked through banding, so they also
// show the exact postings scan returns the same answers there.
var rankedGolden = map[string]uint64{
	"SG": 0x4285a06f915f5d38,
	"CA": 0x00d5fae639508dc0,
	"UK": 0x0d412a53083cd661,
	"US": 0xc3a72d1571fee3c4,
}

func TestRankTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("generates four corpora")
	}
	for _, prof := range gen.Profiles() {
		c := gen.Generate(prof, 0.1, 1)
		tables := c.Tables()
		metas := make([]TableMeta, len(c.Metas))
		for i, m := range c.Metas {
			metas[i] = TableMeta{DatasetID: m.Dataset, Category: m.Category}
		}
		e := New(tables, Options{Meta: metas})
		h := fnv.New64a()
		var buf [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		for ti, q := range tables {
			hs := e.RankTables(q, 10, ti)
			put(uint64(len(hs)))
			for _, x := range hs {
				for _, v := range []int{x.Table, x.QueryCol, x.CandCol, x.Overlap} {
					put(uint64(int64(v)))
				}
				for _, f := range []float64{x.Containment, x.Jaccard, x.SchemaName, x.TypeCompat, x.Metadata, x.Score} {
					put(math.Float64bits(f))
				}
				same := uint64(0)
				if x.SameSchema {
					same = 1
				}
				put(same)
			}
		}
		if got, want := h.Sum64(), rankedGolden[prof.Name]; got != want {
			t.Errorf("%s: ranked digest %#016x, want %#016x", prof.Name, got, want)
		}
	}
}

// TestSkipLedger pins the index-coverage bugfix: columns skipped at
// the minUnique gate and empty columns are both counted, and the
// counts surface through the obs registry.
func TestSkipLedger(t *testing.T) {
	var lowRows, emptyRows [][]string
	for i := 0; i < 20; i++ {
		lowRows = append(lowRows, []string{strconv.Itoa(i % 2), strconv.Itoa(i)})
	}
	for i := 0; i < 20; i++ {
		emptyRows = append(emptyRows, []string{"", strconv.Itoa(100 + i)})
	}
	low := table.FromRows("low.csv", []string{"flag", "id"}, lowRows)
	empty := table.FromRows("empty.csv", []string{"blank", "id"}, emptyRows)
	reg := obs.NewRegistry()
	e := New([]*table.Table{low, empty}, Options{Registry: reg})

	if e.NumIndexed() != 2 {
		t.Errorf("indexed %d columns, want the two id columns", e.NumIndexed())
	}
	sk := e.Skips()
	if sk.MinUnique != 1 || sk.Empty != 1 {
		t.Errorf("Skips = %+v, want MinUnique:1 Empty:1", sk)
	}
	if v := reg.Counter("ogdp_search_index_skipped_total", "", "reason", "below-min-unique").Value(); v != 1 {
		t.Errorf("below-min-unique counter = %d", v)
	}
	if v := reg.Counter("ogdp_search_index_skipped_total", "", "reason", "no-values").Value(); v != 1 {
		t.Errorf("no-values counter = %d", v)
	}
	if v := reg.Counter("ogdp_search_index_columns_total", "").Value(); v != 2 {
		t.Errorf("indexed-columns counter = %d", v)
	}
}

// TestRankCountersThroughRegistry pins that ranked-query work is
// mirrored into the registry.
func TestRankCountersThroughRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	corpus := rankCorpus()
	e := New(corpus, Options{Registry: reg})
	e.RankTables(corpus[1], 10, 1)
	st := e.Stats()
	if st.Queries == 0 || st.Verified == 0 {
		t.Fatalf("Stats = %+v, want nonzero work", st)
	}
	if v := reg.Counter("ogdp_search_rank_queries_total", "").Value(); uint64(v) != st.Queries {
		t.Errorf("queries counter = %d, stats %d", v, st.Queries)
	}
	if v := reg.Counter("ogdp_search_rank_verified_total", "").Value(); uint64(v) != st.Verified {
		t.Errorf("verified counter = %d, stats %d", v, st.Verified)
	}
}

func TestRankTablesEmptyAndBounds(t *testing.T) {
	corpus := rankCorpus()
	e := New(corpus, Options{})
	if hs := e.RankTables(corpus[1], 0, 1); hs != nil {
		t.Errorf("k=0 returned %+v", hs)
	}
	empty := table.New("e.csv", nil, nil)
	if hs := e.RankTables(empty, 5, -1); hs != nil {
		t.Errorf("empty query returned %+v", hs)
	}
	if hs := e.RankTables(corpus[1], 1, 1); len(hs) != 1 {
		t.Errorf("k=1 returned %d hypotheses", len(hs))
	}
}
