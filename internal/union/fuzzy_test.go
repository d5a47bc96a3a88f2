package union

import (
	"fmt"
	"strconv"
	"testing"

	"ogdp/internal/table"
)

func TestFindFuzzyRenamedColumns(t *testing.T) {
	a := table.FromRows("a.csv", []string{"year", "province", "housing_starts"}, [][]string{
		{"2020", "ON", "120"}, {"2021", "QC", "90"},
	})
	b := table.FromRows("b.csv", []string{"Year", "prov", "housing starts"}, [][]string{
		{"2018", "BC", "70"}, {"2019", "AB", "88"},
	})
	pairs := FindFuzzy([]*table.Table{a, b}, FuzzyOptions{})
	if len(pairs) != 1 {
		t.Fatalf("pairs = %d, want 1", len(pairs))
	}
	fp := pairs[0]
	if len(fp.Matches) != 3 {
		t.Errorf("matches = %d, want 3: %+v", len(fp.Matches), fp.Matches)
	}
	if fp.Score <= 0.5 {
		t.Errorf("score = %g", fp.Score)
	}
}

func TestFindFuzzyReorderedColumns(t *testing.T) {
	// Exact identity (Find) requires order; fuzzy matching must not.
	a := table.FromRows("a.csv", []string{"year", "value"}, [][]string{{"2020", "1.5"}})
	b := table.FromRows("b.csv", []string{"value", "year"}, [][]string{{"2.5", "2021"}})
	if got := Find([]*table.Table{a, b}); len(got.Groups) != 0 {
		t.Fatal("exact identity should not match reordered schemas")
	}
	pairs := FindFuzzy([]*table.Table{a, b}, FuzzyOptions{})
	if len(pairs) != 1 || len(pairs[0].Matches) != 2 {
		t.Errorf("fuzzy should match reordered schemas: %+v", pairs)
	}
}

func TestFindFuzzyRejectsDifferentSchemas(t *testing.T) {
	a := table.FromRows("a.csv", []string{"year", "province", "starts"}, [][]string{{"2020", "ON", "12"}})
	b := table.FromRows("b.csv", []string{"year", "species", "weight", "vessel"}, [][]string{{"2020", "Cod", "30", "V1"}})
	// They share "year" (blocking passes) but only 1-2 of 4 columns can
	// match.
	pairs := FindFuzzy([]*table.Table{a, b}, FuzzyOptions{})
	if len(pairs) != 0 {
		t.Errorf("dissimilar schemas matched: %+v", pairs)
	}
}

func TestFindFuzzyTypeCompatibility(t *testing.T) {
	// Same names, incompatible broad types: no match.
	a := table.FromRows("a.csv", []string{"year", "value"}, [][]string{{"2020", "1.5"}, {"2021", "2.0"}})
	b := table.FromRows("b.csv", []string{"year", "value"}, [][]string{{"2020", "high"}, {"2021", "low"}})
	pairs := FindFuzzy([]*table.Table{a, b}, FuzzyOptions{})
	if len(pairs) != 0 {
		t.Errorf("type-incompatible schemas matched: %+v", pairs)
	}
}

func TestFindFuzzyIncludesExactPairs(t *testing.T) {
	a := table.FromRows("a.csv", []string{"year", "value"}, [][]string{{"2020", "1.5"}})
	b := table.FromRows("b.csv", []string{"year", "value"}, [][]string{{"2021", "2.5"}})
	pairs := FindFuzzy([]*table.Table{a, b}, FuzzyOptions{})
	if len(pairs) != 1 || pairs[0].Score != 1 {
		t.Errorf("exact pair = %+v", pairs)
	}
}

func TestFindFuzzyWidthBlocking(t *testing.T) {
	narrow := table.FromRows("n.csv", []string{"year"}, [][]string{{"2020"}})
	wide := table.FromRows("w.csv", []string{"year", "a", "b", "c", "d", "e"}, [][]string{{"2020", "1", "2", "3", "4", "5"}})
	pairs := FindFuzzy([]*table.Table{narrow, wide}, FuzzyOptions{})
	if len(pairs) != 0 {
		t.Errorf("width-incompatible pair matched: %+v", pairs)
	}
}

func TestNameSimilarity(t *testing.T) {
	cases := []struct {
		a, b string
		lo   float64
	}{
		{"province", "province", 1},
		{"Province", "province", 1},
		{"housing_starts", "housing starts", 1},
		{"prov", "province", 0.4},
		{"fund_code", "fund code", 1},
	}
	for _, c := range cases {
		if got := nameSimilarity(c.a, c.b); got < c.lo {
			t.Errorf("nameSimilarity(%q, %q) = %g, want >= %g", c.a, c.b, got, c.lo)
		}
	}
	if got := nameSimilarity("species", "amount"); got > 0.2 {
		t.Errorf("unrelated names score %g", got)
	}
}

func TestFindFuzzyGainOverExact(t *testing.T) {
	// A periodic series whose publisher renamed a column one year: the
	// exact metric splits the series, fuzzy matching keeps it together.
	var tables []*table.Table
	for y := 0; y < 4; y++ {
		cols := []string{"year", "council", "amount"}
		if y == 3 {
			cols = []string{"Year", "council_name", "amount"}
		}
		var rows [][]string
		for r := 0; r < 12; r++ {
			rows = append(rows, []string{strconv.Itoa(2018 + y), fmt.Sprintf("Council %d", r), strconv.Itoa(100 + r)})
		}
		tables = append(tables, table.FromRows(fmt.Sprintf("spend-%d.csv", 2018+y), cols, rows))
	}
	exact := Find(tables)
	if exact.UnionableTables() != 3 {
		t.Fatalf("exact unionable = %d, want 3 (renamed year split off)", exact.UnionableTables())
	}
	fuzzy := FindFuzzy(tables, FuzzyOptions{})
	inFuzzy := map[int]bool{}
	for _, p := range fuzzy {
		inFuzzy[p.T1] = true
		inFuzzy[p.T2] = true
	}
	if len(inFuzzy) != 4 {
		t.Errorf("fuzzy matching should recover all 4 tables, got %d", len(inFuzzy))
	}
}

func BenchmarkFindFuzzy(b *testing.B) {
	var tables []*table.Table
	for i := 0; i < 150; i++ {
		cols := []string{"year", "council", "amount"}
		if i%3 == 0 {
			cols = []string{"Year", "council name", "amount_total"}
		}
		var rows [][]string
		for r := 0; r < 30; r++ {
			rows = append(rows, []string{strconv.Itoa(2000 + r%20), fmt.Sprintf("C%d", r), strconv.Itoa(r * 7)})
		}
		tables = append(tables, table.FromRows(fmt.Sprintf("t%d.csv", i), cols, rows))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindFuzzy(tables, FuzzyOptions{})
	}
}
