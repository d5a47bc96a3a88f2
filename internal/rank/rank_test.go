package rank

import (
	"fmt"
	"strconv"
	"testing"

	"ogdp/internal/join"
	"ogdp/internal/table"
	"ogdp/internal/union"
)

func TestScoreJoinSignals(t *testing.T) {
	// Two tables sharing a categorical key domain, same dataset.
	mk := func(name, ds string) *table.Table {
		var species []string
		for i := 0; i < 30; i++ {
			species = append(species, fmt.Sprintf("Species %c%d", 'A'+i%26, i))
		}
		tb := table.New(name, []string{"species"}, [][]string{species})
		tb.DatasetID = ds
		return tb
	}
	good := []*table.Table{mk("a.csv", "d"), mk("b.csv", "d")}
	goodPairs := join.Find(good, join.Options{}).Pairs
	if len(goodPairs) != 1 {
		t.Fatal("expected one pair")
	}

	// Two unrelated tables overlapping on incremental ids with large
	// expansion.
	mkID := func(name, ds string) *table.Table {
		var ids []string
		for i := 0; i < 60; i++ {
			ids = append(ids, strconv.Itoa(i%20+1)) // repeats -> expansion
		}
		tb := table.New(name, []string{"id"}, [][]string{ids})
		tb.DatasetID = ds
		return tb
	}
	bad := []*table.Table{mkID("x.csv", "d1"), mkID("y.csv", "d2")}
	badPairs := join.Find(bad, join.Options{}).Pairs
	if len(badPairs) != 1 {
		t.Fatal("expected one bad pair")
	}

	gs := ScoreJoin(good, goodPairs[0], JoinWeights{})
	bs := ScoreJoin(bad, badPairs[0], JoinWeights{})
	if gs <= bs {
		t.Errorf("useful-looking pair scored %.2f, accidental-looking %.2f", gs, bs)
	}
}

func TestRankJoinsOrdering(t *testing.T) {
	mk := func(name, ds, col string, vals []string) *table.Table {
		tb := table.New(name, []string{col}, [][]string{vals})
		tb.DatasetID = ds
		return tb
	}
	var species []string
	var ids []string
	for i := 0; i < 25; i++ {
		species = append(species, fmt.Sprintf("Sp %c%d", 'A'+i%26, i))
		ids = append(ids, strconv.Itoa(i+1))
	}
	tables := []*table.Table{
		mk("m.csv", "d1", "species", species),
		mk("a.csv", "d1", "species", species),
		mk("p.csv", "d2", "id", ids),
		mk("q.csv", "d3", "id", ids),
	}
	pairs := join.Find(tables, join.Options{}).Pairs
	if len(pairs) != 2 {
		t.Fatalf("pairs = %d, want 2", len(pairs))
	}
	ranked := RankJoins(tables, pairs, JoinWeights{})
	top := ranked[0].Pair
	if tables[top.T1].Cols[top.C1] != "species" {
		t.Errorf("species same-dataset pair should rank first, got %v", top)
	}
	if ranked[0].Score <= ranked[1].Score {
		t.Error("scores not strictly ordered")
	}
}

// TestUnionHousingScenario reproduces the paper's housing example:
// tables partitioned on (house type × council). A candidate sharing
// the council or the house type must outrank one differing in both.
func TestUnionHousingScenario(t *testing.T) {
	mk := func(houseType, council string) *table.Table {
		name := fmt.Sprintf("housing-%s-%s.csv", houseType, council)
		var rows [][]string
		for y := 0; y < 15; y++ {
			rows = append(rows, []string{houseType, council, strconv.Itoa(2005 + y), strconv.Itoa((y*37 + len(houseType)) % 500)})
		}
		tb := table.FromRows(name, []string{"house_type", "council", "year", "starts"}, rows)
		tb.DatasetID = "housing"
		return tb
	}
	target := mk("detached", "camden")
	sameCouncil := mk("flat", "camden")
	sameType := mk("detached", "hackney")
	neither := mk("terraced", "islington")
	tables := []*table.Table{target, sameCouncil, sameType, neither}

	ua := union.Find(tables)
	if len(ua.Groups) != 1 || len(ua.Groups[0].Tables) != 4 {
		t.Fatalf("union groups = %+v", ua.Groups)
	}
	ranked := RankUnionCandidates(ua, 0, UnionWeights{})
	if len(ranked) != 3 {
		t.Fatalf("ranked = %d", len(ranked))
	}
	// "neither" must come last.
	if ranked[len(ranked)-1].Table != 3 {
		t.Errorf("candidate differing in both dimensions should rank last: %+v", ranked)
	}
	for _, r := range ranked[:2] {
		if r.Table == 3 {
			t.Errorf("one-dimension candidates should outrank the two-dimension one: %+v", ranked)
		}
	}
}

func TestRankUnionCandidatesNotUnionable(t *testing.T) {
	a := table.FromRows("a.csv", []string{"x"}, [][]string{{"1"}})
	b := table.FromRows("b.csv", []string{"y"}, [][]string{{"2"}})
	ua := union.Find([]*table.Table{a, b})
	if got := RankUnionCandidates(ua, 0, UnionWeights{}); got != nil {
		t.Errorf("non-unionable target ranked: %v", got)
	}
}

func TestNameOverlap(t *testing.T) {
	cases := []struct {
		a, b string
		want bool // > 0
	}{
		{"housing-starts-2019.csv", "housing-starts-2020.csv", true},
		{"fish-landings-part1.csv", "crime-stats-part2.csv", false},
		{"a.csv", "a.csv", true},
	}
	for _, c := range cases {
		got := nameOverlap(c.a, c.b)
		if (got > 0) != c.want {
			t.Errorf("nameOverlap(%q, %q) = %g", c.a, c.b, got)
		}
	}
	if nameOverlap("housing-2019.csv", "housing-2020.csv") != 1 {
		t.Error("year tokens should be ignored")
	}
}

func BenchmarkRankJoins(b *testing.B) {
	var tables []*table.Table
	for i := 0; i < 40; i++ {
		var ids []string
		for r := 0; r < 100; r++ {
			ids = append(ids, strconv.Itoa(r+1))
		}
		tb := table.New(fmt.Sprintf("t%d.csv", i), []string{"id"}, [][]string{ids})
		tb.DatasetID = fmt.Sprintf("d%d", i/4)
		tables = append(tables, tb)
	}
	pairs := join.Find(tables, join.Options{}).Pairs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RankJoins(tables, pairs, JoinWeights{})
	}
}
