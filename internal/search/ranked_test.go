package search

import (
	"fmt"
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
	e := New(corpus, MinUniqueDefault)
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
	a := New(corpus, MinUniqueDefault)
	b := NewWithOptions(corpus, Options{MinUnique: MinUniqueDefault})
	for ti := range corpus {
		ha := a.RankTables(corpus[ti], 10, ti)
		hb := b.RankTables(corpus[ti], 10, ti)
		if !reflect.DeepEqual(ha, hb) {
			t.Errorf("table %d: rankings differ across engine builds:\n%+v\n%+v", ti, ha, hb)
		}
	}
}

// TestLSHAgreesWithExactOnStudyCorpora pins the recall-safe claim:
// at the default 64×2 banding the LSH candidate path returns the same
// ranked hypothesis lists as the exhaustive scan on a generated study
// corpus, while performing strictly less verification work.
func TestLSHAgreesWithExactOnStudyCorpora(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a corpus")
	}
	c := gen.Generate(gen.SG(), 0.1, 1)
	tables := c.Tables()
	exact := NewWithOptions(tables, Options{MinUnique: MinUniqueDefault, ExactCutoff: math.MaxInt})
	lsh := NewWithOptions(tables, Options{MinUnique: MinUniqueDefault, ExactCutoff: 1})
	if exact.Path() != "exact" || lsh.Path() != "lsh" {
		t.Fatalf("paths = %s/%s, want exact/lsh", exact.Path(), lsh.Path())
	}
	for ti := range tables {
		he := exact.RankTables(tables[ti], 10, ti)
		hl := lsh.RankTables(tables[ti], 10, ti)
		if !reflect.DeepEqual(he, hl) {
			t.Errorf("table %d (%s): LSH ranking differs from exact:\nexact %+v\nlsh   %+v",
				ti, tables[ti].Name, he, hl)
		}
	}
	se, sl := exact.Stats(), lsh.Stats()
	if sl.Verified >= se.Verified {
		t.Errorf("LSH verified %d >= exact %d: banding saved no work", sl.Verified, se.Verified)
	}
}

// TestMegaCorpusLSHDoesLessWork pins the sublinearity claim on a
// worst case for the exact path: every column shares one common value,
// so the postings scan touches every indexed column for every query,
// while banding only surfaces the genuinely similar ones.
func TestMegaCorpusLSHDoesLessWork(t *testing.T) {
	var corpus []*table.Table
	const n = 600
	for i := 0; i < n; i++ {
		ids := []string{"common"} // shared by every column
		for r := 0; r < 20; r++ {
			ids = append(ids, fmt.Sprintf("v-%d-%d", i, r))
		}
		corpus = append(corpus, table.New(fmt.Sprintf("t%d.csv", i), []string{"id"}, [][]string{ids}))
	}
	exact := NewWithOptions(corpus, Options{ExactCutoff: math.MaxInt})
	lsh := NewWithOptions(corpus, Options{ExactCutoff: 1})

	exact.RankTables(corpus[0], 10, 0)
	lsh.RankTables(corpus[0], 10, 0)

	se, sl := exact.Stats(), lsh.Stats()
	if se.Verified != n-1 {
		t.Fatalf("exact path verified %d candidates, want %d (every other column)", se.Verified, n-1)
	}
	if sl.Verified*10 > se.Verified {
		t.Errorf("LSH verified %d of %d: banding should prune the one-value overlaps", sl.Verified, se.Verified)
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
	e := NewWithOptions([]*table.Table{low, empty},
		Options{MinUnique: MinUniqueDefault, Registry: reg})

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
// mirrored into the registry with the path label.
func TestRankCountersThroughRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	corpus := rankCorpus()
	e := NewWithOptions(corpus, Options{MinUnique: MinUniqueDefault, Registry: reg})
	e.RankTables(corpus[1], 10, 1)
	st := e.Stats()
	if st.Queries == 0 || st.Verified == 0 {
		t.Fatalf("Stats = %+v, want nonzero work", st)
	}
	if v := reg.Counter("ogdp_search_rank_queries_total", "", "path", "exact").Value(); uint64(v) != st.Queries {
		t.Errorf("queries counter = %d, stats %d", v, st.Queries)
	}
	if v := reg.Counter("ogdp_search_rank_verified_total", "", "path", "exact").Value(); uint64(v) != st.Verified {
		t.Errorf("verified counter = %d, stats %d", v, st.Verified)
	}
}

func TestRankTablesEmptyAndBounds(t *testing.T) {
	corpus := rankCorpus()
	e := New(corpus, MinUniqueDefault)
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
