package search

import (
	"fmt"
	"sort"
	"strconv"
	"testing"

	"ogdp/internal/join"
	"ogdp/internal/table"
)

// corpus: tables with controlled overlap against a query id column
// covering 1..30.
func buildCorpus() []*table.Table {
	mk := func(name string, from, to int) *table.Table {
		var rows [][]string
		for i := from; i <= to; i++ {
			rows = append(rows, []string{strconv.Itoa(i), name})
		}
		return table.FromRows(name, []string{"id", "payload"}, rows)
	}
	return []*table.Table{
		mk("full.csv", 1, 30),    // overlap 30
		mk("most.csv", 4, 30),    // overlap 27
		mk("half.csv", 16, 45),   // overlap 15
		mk("none.csv", 100, 140), // overlap 0
	}
}

func queryTable() *table.Table {
	var ids []string
	for i := 1; i <= 30; i++ {
		ids = append(ids, strconv.Itoa(i))
	}
	return table.New("query.csv", []string{"id"}, [][]string{ids})
}

func TestTopKJoinable(t *testing.T) {
	corpus := buildCorpus()
	e := New(corpus, Options{})
	q := queryTable()

	res := e.TopKJoinable(q, 0, 2, -1)
	if len(res) != 2 {
		t.Fatalf("top-2 = %d results", len(res))
	}
	if res[0].Ref.Table != 0 || res[0].Overlap != 30 {
		t.Errorf("top result = %+v, want full.csv overlap 30", res[0])
	}
	if res[1].Ref.Table != 1 || res[1].Overlap != 27 {
		t.Errorf("second result = %+v, want most.csv overlap 27", res[1])
	}
	if res[0].Jaccard != 1.0 || res[0].Containment != 1.0 {
		t.Errorf("full overlap metrics: %+v", res[0])
	}
}

func TestTopKOrdering(t *testing.T) {
	corpus := buildCorpus()
	e := New(corpus, Options{})
	res := e.TopKJoinable(queryTable(), 0, 10, -1)
	for i := 1; i < len(res); i++ {
		if res[i].Overlap > res[i-1].Overlap {
			t.Fatalf("results not sorted by overlap: %+v", res)
		}
	}
	// none.csv shares no values and must be absent.
	for _, r := range res {
		if r.Ref.Table == 3 {
			t.Error("zero-overlap column returned")
		}
	}
}

func TestJoinableForThreshold(t *testing.T) {
	corpus := buildCorpus()
	e := New(corpus, Options{})
	q := queryTable()

	res := joinableFor(e, q, 0, 0.9, -1)
	if len(res) != 2 { // full (1.0) and most (27/33 = 0.818... no!)
		// 27 shared of |Q|=30, |C|=27 -> union 30 -> J = 0.9 exactly.
		t.Fatalf("threshold results = %+v", res)
	}
	if res[0].Jaccard < res[1].Jaccard {
		t.Error("not sorted by Jaccard")
	}
}

// TestAgreesWithJoinFind: searching each corpus column must recover
// exactly the pairs join.Find reports.
func TestAgreesWithJoinFind(t *testing.T) {
	var corpus []*table.Table
	for i := 0; i < 8; i++ {
		base := (i % 3) * 2
		var ids []string
		for r := 0; r < 40; r++ {
			ids = append(ids, strconv.Itoa(base+r))
		}
		corpus = append(corpus, table.New(fmt.Sprintf("t%d.csv", i), []string{"id"}, [][]string{ids}))
	}
	want := map[[4]int]bool{}
	for _, p := range join.Find(corpus, join.Options{}).Pairs {
		want[[4]int{p.T1, p.C1, p.T2, p.C2}] = true
	}
	e := New(corpus, Options{})
	got := map[[4]int]bool{}
	for ti, tb := range corpus {
		for _, r := range joinableFor(e, tb, 0, join.DefaultMinJaccard, ti) {
			a := [4]int{ti, 0, r.Ref.Table, r.Ref.Column}
			if a[2] < a[0] {
				a = [4]int{a[2], a[3], a[0], a[1]}
			}
			got[a] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("search found %d pairs, join.Find %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("pair %v missed by search", k)
		}
	}
}

func TestMinUniqueFilterApplied(t *testing.T) {
	var flags []string
	for i := 0; i < 20; i++ {
		flags = append(flags, strconv.Itoa(i%2))
	}
	small := table.New("small.csv", []string{"flag"}, [][]string{flags})
	e := New([]*table.Table{small}, Options{})
	if e.NumIndexed() != 0 {
		t.Errorf("low-cardinality column indexed: %d", e.NumIndexed())
	}
}

func TestExcludeTable(t *testing.T) {
	corpus := buildCorpus()
	e := New(corpus, Options{})
	res := e.TopKJoinable(corpus[0], 0, 10, 0)
	for _, r := range res {
		if r.Ref.Table == 0 {
			t.Error("excluded table returned")
		}
	}
}

func TestUnionableFor(t *testing.T) {
	a := table.FromRows("a.csv", []string{"year", "value"}, [][]string{{"2020", "1.5"}})
	b := table.FromRows("b.csv", []string{"year", "value"}, [][]string{{"1999", "2.5"}})
	c := table.FromRows("c.csv", []string{"year", "name"}, [][]string{{"2020", "x"}})
	e := New([]*table.Table{a, b, c}, Options{})
	got := unionableFor(e, a, 0)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("unionableFor = %v", got)
	}
	q := table.FromRows("ext.csv", []string{"year", "value"}, [][]string{{"1901", "7.5"}})
	if got := unionableFor(e, q, -1); len(got) != 2 {
		t.Errorf("external query unionable = %v", got)
	}
}

func TestEmptyQuery(t *testing.T) {
	e := New(buildCorpus(), Options{})
	empty := table.New("e.csv", []string{"id"}, [][]string{nil})
	if res := e.TopKJoinable(empty, 0, 5, -1); res != nil {
		t.Errorf("empty query returned %v", res)
	}
	if res := joinableFor(e, empty, 0, 0.5, -1); res != nil {
		t.Errorf("empty query returned %v", res)
	}
}

func BenchmarkTopKJoinable(b *testing.B) {
	var corpus []*table.Table
	for i := 0; i < 200; i++ {
		var rows [][]string
		for r := 0; r < 200; r++ {
			rows = append(rows, []string{strconv.Itoa(r + i*3), fmt.Sprintf("state-%d", (r+i)%40)})
		}
		corpus = append(corpus, table.FromRows(fmt.Sprintf("t%d.csv", i), []string{"id", "state"}, rows))
	}
	e := New(corpus, Options{})
	q := corpus[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.TopKJoinable(q, 0, 10, 0)
	}
}

func BenchmarkBuildIndex(b *testing.B) {
	var corpus []*table.Table
	for i := 0; i < 100; i++ {
		var ids []string
		for r := 0; r < 300; r++ {
			ids = append(ids, strconv.Itoa(r+i))
		}
		corpus = append(corpus, table.New(fmt.Sprintf("t%d.csv", i), []string{"id"}, [][]string{ids}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(corpus, Options{})
	}
}

// joinableFor returns all corpus columns whose Jaccard similarity with
// the query column is at least minJaccard (the paper's thresholded
// search), sorted by Jaccard descending.
func joinableFor(e *Engine, query *table.Table, col int, minJaccard float64, excludeTable int) []Result {
	q := query.Profile(col)
	if q.Distinct == 0 {
		return nil
	}
	counts := e.overlaps(q, excludeTable)
	var out []Result
	for id, inter := range counts {
		r := e.result(id, q, inter)
		if r.Jaccard >= minJaccard {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Jaccard > out[j].Jaccard {
			return true
		}
		if out[i].Jaccard < out[j].Jaccard {
			return false
		}
		if out[i].Ref.Table != out[j].Ref.Table {
			return out[i].Ref.Table < out[j].Ref.Table
		}
		return out[i].Ref.Column < out[j].Ref.Column
	})
	return out
}

// unionableFor returns the corpus tables sharing the query table's
// exact schema (column names and broad types, in order).
func unionableFor(e *Engine, query *table.Table, excludeTable int) []int {
	key := query.SchemaKey()
	var out []int
	for ti, t := range e.tables {
		if ti == excludeTable {
			continue
		}
		if t.NumCols() > 0 && t.SchemaKey() == key {
			out = append(out, ti)
		}
	}
	return out
}
