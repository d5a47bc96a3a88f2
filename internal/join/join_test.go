package join

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"ogdp/internal/table"
)

// idTable builds a table with an id column 1..n and a payload column.
func idTable(name string, n int, payload string) *table.Table {
	var rows [][]string
	for i := 1; i <= n; i++ {
		rows = append(rows, []string{strconv.Itoa(i), fmt.Sprintf("%s-%d", payload, i)})
	}
	return table.FromRows(name, []string{"id", payload}, rows)
}

func TestFindPerfectOverlap(t *testing.T) {
	t1 := idTable("a.csv", 50, "x")
	t2 := idTable("b.csv", 50, "y")
	an := Find([]*table.Table{t1, t2}, Options{})
	if len(an.Pairs) != 1 {
		t.Fatalf("pairs = %d, want 1", len(an.Pairs))
	}
	p := an.Pairs[0]
	if p.T1 != 0 || p.C1 != 0 || p.T2 != 1 || p.C2 != 0 {
		t.Errorf("pair = %+v", p)
	}
	if p.Jaccard != 1.0 {
		t.Errorf("jaccard = %g", p.Jaccard)
	}
	if !p.Key1 || !p.Key2 {
		t.Errorf("id columns must be keys: %+v", p)
	}
	if p.Expansion != 1.0 {
		t.Errorf("key-key expansion = %g, want 1", p.Expansion)
	}
}

func TestThresholdExcludesLowOverlap(t *testing.T) {
	t1 := idTable("a.csv", 50, "x")
	// 50..99 overlaps 1..50 in a single value (50): Jaccard ~ 0.01.
	var rows [][]string
	for i := 50; i < 100; i++ {
		rows = append(rows, []string{strconv.Itoa(i), "v"})
	}
	t2 := table.FromRows("b.csv", []string{"id", "y"}, rows)
	an := Find([]*table.Table{t1, t2}, Options{})
	if len(an.Pairs) != 0 {
		t.Errorf("pairs = %v, want none", an.Pairs)
	}
	// With a tiny threshold the pair appears.
	an2 := Find([]*table.Table{t1, t2}, Options{MinJaccard: 0.005})
	if len(an2.Pairs) != 1 {
		t.Errorf("low threshold pairs = %d, want 1", len(an2.Pairs))
	}
}

func TestMinUniqueFilter(t *testing.T) {
	// Boolean-ish columns overlap perfectly but have 2 distinct values.
	var flags []string
	for i := 0; i < 40; i++ {
		flags = append(flags, strconv.Itoa(i%2))
	}
	t1 := table.New("a.csv", []string{"flag"}, [][]string{flags})
	t2 := table.New("b.csv", []string{"flag"}, [][]string{flags})
	an := Find([]*table.Table{t1, t2}, Options{})
	if len(an.Pairs) != 0 || an.Eligible != 0 {
		t.Errorf("boolean columns must be filtered: pairs=%d eligible=%d", len(an.Pairs), an.Eligible)
	}
	an2 := Find([]*table.Table{t1, t2}, Options{MinUnique: -1})
	if len(an2.Pairs) != 1 {
		t.Errorf("disabled filter: pairs = %d, want 1", len(an2.Pairs))
	}
}

func TestSameTableColumnsNotPaired(t *testing.T) {
	var rows [][]string
	for i := 1; i <= 30; i++ {
		v := strconv.Itoa(i)
		rows = append(rows, []string{v, v})
	}
	tb := table.FromRows("a.csv", []string{"x", "y"}, rows)
	an := Find([]*table.Table{tb}, Options{})
	if len(an.Pairs) != 0 {
		t.Errorf("intra-table pair reported: %v", an.Pairs)
	}
}

func TestExpansionRatioNonKey(t *testing.T) {
	// Each value appears 3 times in t1 and 2 times in t2 over 10 values:
	// join output = 10·3·2 = 60; larger table has 30 rows; expansion 2.
	var v1, v2 []string
	for val := 0; val < 10; val++ {
		for k := 0; k < 3; k++ {
			v1 = append(v1, strconv.Itoa(val))
		}
		for k := 0; k < 2; k++ {
			v2 = append(v2, strconv.Itoa(val))
		}
	}
	t1 := table.New("a.csv", []string{"v"}, [][]string{v1})
	t2 := table.New("b.csv", []string{"v"}, [][]string{v2})
	an := Find([]*table.Table{t1, t2}, Options{})
	if len(an.Pairs) != 1 {
		t.Fatalf("pairs = %d", len(an.Pairs))
	}
	p := an.Pairs[0]
	if p.Expansion != 2.0 {
		t.Errorf("expansion = %g, want 2", p.Expansion)
	}
	if p.Key1 || p.Key2 {
		t.Error("repeating columns must not be keys")
	}
}

func TestJaccardExact(t *testing.T) {
	// 9 shared of 10 each: J = 9/11 ≈ 0.818.
	var v1, v2 []string
	for i := 0; i < 10; i++ {
		v1 = append(v1, fmt.Sprintf("v%02d", i))
		v2 = append(v2, fmt.Sprintf("v%02d", i+1))
	}
	t1 := table.New("a.csv", []string{"v"}, [][]string{v1})
	t2 := table.New("b.csv", []string{"v"}, [][]string{v2})
	an := Find([]*table.Table{t1, t2}, Options{MinJaccard: 0.8})
	if len(an.Pairs) != 1 {
		t.Fatalf("pairs = %d", len(an.Pairs))
	}
	want := 9.0 / 11.0
	if got := an.Pairs[0].Jaccard; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("jaccard = %g, want %g", got, want)
	}
	// Above the exact value, the pair disappears.
	an2 := Find([]*table.Table{t1, t2}, Options{MinJaccard: 0.82})
	if len(an2.Pairs) != 0 {
		t.Errorf("threshold 0.82 should exclude J=0.818 pair")
	}
}

func TestNullsExcludedFromOverlap(t *testing.T) {
	// Shared values + many nulls on both sides: nulls must not join or
	// count toward the value sets.
	var v1, v2 []string
	for i := 0; i < 15; i++ {
		v1 = append(v1, strconv.Itoa(i))
		v2 = append(v2, strconv.Itoa(i))
	}
	for i := 0; i < 10; i++ {
		v1 = append(v1, "")
		v2 = append(v2, "n/a")
	}
	t1 := table.New("a.csv", []string{"v"}, [][]string{v1})
	t2 := table.New("b.csv", []string{"v"}, [][]string{v2})
	an := Find([]*table.Table{t1, t2}, Options{})
	if len(an.Pairs) != 1 {
		t.Fatalf("pairs = %d", len(an.Pairs))
	}
	p := an.Pairs[0]
	if p.Jaccard != 1.0 {
		t.Errorf("jaccard with nulls = %g, want 1 (nulls excluded)", p.Jaccard)
	}
	// Join output = 15 matches; larger table 25 rows; expansion 0.6.
	if p.Expansion != 0.6 {
		t.Errorf("expansion = %g, want 0.6", p.Expansion)
	}
}

// TestPrefixFilterAgainstAllPairs cross-validates the indexed finder
// against brute force on random corpora.
func TestPrefixFilterAgainstAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		var tables []*table.Table
		nTables := 3 + rng.Intn(5)
		for ti := 0; ti < nTables; ti++ {
			nCols := 1 + rng.Intn(3)
			cols := make([]string, nCols)
			for c := range cols {
				cols[c] = fmt.Sprintf("c%d", c)
			}
			nRows := 10 + rng.Intn(60)
			base := rng.Intn(3) * 2 // overlapping value ranges across tables
			rows := make([][]string, nRows)
			for r := range rows {
				row := make([]string, nCols)
				for c := range row {
					row[c] = strconv.Itoa(base + rng.Intn(25))
				}
				rows[r] = row
			}
			tables = append(tables, table.FromRows(fmt.Sprintf("t%d", ti), cols, rows))
		}
		for _, minJ := range []float64{0.9, 0.7, 0.5} {
			got := Find(tables, Options{MinJaccard: minJ})
			want := FindAllPairs(tables, Options{MinJaccard: minJ})
			if !reflect.DeepEqual(got.Pairs, want.Pairs) {
				t.Fatalf("trial %d θ=%g: indexed %d pairs, brute force %d pairs\n%v\n%v",
					trial, minJ, len(got.Pairs), len(want.Pairs), got.Pairs, want.Pairs)
			}
		}
	}
}

func TestEmptyCorpus(t *testing.T) {
	if an := Find(nil, Options{}); len(an.Pairs) != 0 {
		t.Error("empty corpus produced pairs")
	}
	one := idTable("only.csv", 20, "x")
	if an := Find([]*table.Table{one}, Options{}); len(an.Pairs) != 0 {
		t.Error("single table produced pairs")
	}
}

func buildBenchCorpus(nTables, nRows int, seed int64) []*table.Table {
	rng := rand.New(rand.NewSource(seed))
	var tables []*table.Table
	for ti := 0; ti < nTables; ti++ {
		rows := make([][]string, nRows)
		for r := range rows {
			rows[r] = []string{
				strconv.Itoa(r + 1),
				fmt.Sprintf("state-%d", rng.Intn(50)),
				strconv.Itoa(rng.Intn(100000)),
			}
		}
		tables = append(tables, table.FromRows(fmt.Sprintf("t%d", ti), []string{"id", "state", "value"}, rows))
	}
	return tables
}

func BenchmarkFindIndexed(b *testing.B) {
	tables := buildBenchCorpus(50, 500, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Find(tables, Options{})
	}
}

func BenchmarkFindAllPairs(b *testing.B) {
	tables := buildBenchCorpus(50, 500, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindAllPairs(tables, Options{})
	}
}
