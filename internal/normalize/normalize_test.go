package normalize

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ogdp/internal/fd"
	"ogdp/internal/table"
)

// denormalized builds a pre-joined table the way OGDPs publish them:
// one row per (grant, city) with the city's province repeated.
func denormalized() *table.Table {
	cities := []struct{ city, prov string }{
		{"Waterloo", "ON"}, {"Toronto", "ON"}, {"Montreal", "QC"},
		{"Quebec City", "QC"}, {"Vancouver", "BC"},
	}
	var rows [][]string
	for i := 0; i < 40; i++ {
		c := cities[i%len(cities)]
		rows = append(rows, []string{
			strconv.Itoa(i + 1), // grant id (key)
			c.city,
			c.prov,
			strconv.Itoa((i%7 + 1) * 1000), // amount
		})
	}
	return table.FromRows("grants", []string{"grant_id", "city", "province", "amount"}, rows)
}

func TestDecomposeSplitsCityProvince(t *testing.T) {
	tb := denormalized()
	rng := rand.New(rand.NewSource(1))
	res := Decompose(tb, fd.MaxLHS, rng)
	if res.InBCNF() {
		t.Fatal("denormalized table reported as BCNF")
	}
	if len(res.Parts) < 2 {
		t.Fatalf("decomposed into %d tables", len(res.Parts))
	}
	// One sub-table must be the city->province lookup.
	found := false
	for _, st := range res.Tables() {
		names := strings.Join(st.Cols, ",")
		if names == "city,province" {
			found = true
			if st.NumRows() != 5 {
				t.Errorf("city/province sub-table has %d rows, want 5 (deduped)", st.NumRows())
			}
		}
	}
	if !found {
		var all []string
		for _, st := range res.Tables() {
			all = append(all, strings.Join(st.Cols, ","))
		}
		t.Errorf("no city/province sub-table; got %v", all)
	}
}

func TestDecomposeBCNFInput(t *testing.T) {
	// All-distinct key/value pairs: already BCNF.
	tb := table.FromRows("t", []string{"id", "val"}, [][]string{
		{"1", "a"}, {"2", "b"}, {"3", "c"},
	})
	res := Decompose(tb, fd.MaxLHS, rand.New(rand.NewSource(1)))
	if !res.InBCNF() || len(res.Parts) != 1 || res.Steps != 0 {
		t.Errorf("BCNF input: tables=%d steps=%d", len(res.Parts), res.Steps)
	}
	if res.UniquenessGain() != 1 {
		t.Errorf("gain for BCNF table = %g, want 1", res.UniquenessGain())
	}
}

func TestSubTablesAreBCNF(t *testing.T) {
	tb := denormalized()
	res := Decompose(tb, fd.MaxLHS, rand.New(rand.NewSource(2)))
	for _, st := range res.Tables() {
		if fds := fd.Discover(st, fd.MaxLHS); len(fds) != 0 {
			t.Errorf("sub-table %v still has FDs: %v", st.Cols, fds)
		}
	}
}

func TestLosslessness(t *testing.T) {
	// Joining the decomposition back must reproduce the original tuples
	// (lossless-join property of BCNF decomposition). We verify on the
	// two-table case by natural-joining the chain of sub-tables.
	tb := denormalized()
	res := Decompose(tb, fd.MaxLHS, rand.New(rand.NewSource(3)))

	subs := res.Tables()
	joined := subs[0]
	for _, st := range subs[1:] {
		joined = naturalJoin(joined, st)
	}
	// Same column multiset (order may differ) and same distinct tuples.
	if joined.NumCols() != tb.NumCols() {
		t.Fatalf("joined has %d cols, want %d", joined.NumCols(), tb.NumCols())
	}
	origSet := tupleSet(tb, tb.Cols)
	joinSet := tupleSet(joined, tb.Cols)
	if len(origSet) != len(joinSet) {
		t.Fatalf("tuple counts differ: %d vs %d", len(origSet), len(joinSet))
	}
	for k := range origSet {
		if _, ok := joinSet[k]; !ok {
			t.Fatalf("tuple lost in decomposition: %q", k)
		}
	}
}

// naturalJoin joins two tables on all shared column names (test helper,
// quadratic).
func naturalJoin(a, b *table.Table) *table.Table {
	var sharedA, sharedB []int
	for ia, ca := range a.Cols {
		for ib, cb := range b.Cols {
			if ca == cb {
				sharedA = append(sharedA, ia)
				sharedB = append(sharedB, ib)
			}
		}
	}
	var extraB []int
	for ib := range b.Cols {
		used := false
		for _, s := range sharedB {
			if s == ib {
				used = true
			}
		}
		if !used {
			extraB = append(extraB, ib)
		}
	}
	cols := append([]string(nil), a.Cols...)
	for _, ib := range extraB {
		cols = append(cols, b.Cols[ib])
	}
	var rows [][]string
	for ra := 0; ra < a.NumRows(); ra++ {
		for rb := 0; rb < b.NumRows(); rb++ {
			match := true
			for i := range sharedA {
				if a.Value(sharedA[i], ra) != b.Value(sharedB[i], rb) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			row := make([]string, 0, len(cols))
			for c := range a.Cols {
				row = append(row, a.Value(c, ra))
			}
			for _, ib := range extraB {
				row = append(row, b.Value(ib, rb))
			}
			rows = append(rows, row)
		}
	}
	return table.FromRows("join", cols, rows)
}

func tupleSet(t *table.Table, colOrder []string) map[string]struct{} {
	idx := make([]int, len(colOrder))
	for i, name := range colOrder {
		idx[i] = t.ColumnIndex(name)
	}
	set := make(map[string]struct{})
	for r := 0; r < t.NumRows(); r++ {
		var b strings.Builder
		for _, c := range idx {
			b.WriteString(t.Value(c, r))
			b.WriteByte(0x1f)
		}
		set[b.String()] = struct{}{}
	}
	return set
}

func TestUniquenessGainIncreases(t *testing.T) {
	tb := denormalized()
	res := Decompose(tb, fd.MaxLHS, rand.New(rand.NewSource(4)))
	gain := res.UniquenessGain()
	if gain <= 1 {
		t.Errorf("uniqueness gain = %g, want > 1 for a denormalized table", gain)
	}
}

func TestDecomposeDeterministicWithSeed(t *testing.T) {
	tb := denormalized()
	shapes := func(seed int64) string {
		res := Decompose(tb, fd.MaxLHS, rand.New(rand.NewSource(seed)))
		var parts []string
		for _, st := range res.Tables() {
			parts = append(parts, strings.Join(st.Cols, ","))
		}
		sort.Strings(parts)
		return strings.Join(parts, ";")
	}
	if shapes(7) != shapes(7) {
		t.Error("same seed produced different decompositions")
	}
}

func TestDecomposeConstantColumn(t *testing.T) {
	tb := table.FromRows("t", []string{"id", "const"}, [][]string{
		{"1", "x"}, {"2", "x"}, {"3", "x"},
	})
	res := Decompose(tb, fd.MaxLHS, rand.New(rand.NewSource(5)))
	if res.InBCNF() {
		t.Fatal("constant column table reported BCNF")
	}
	// The constant column must end up in a 1-row sub-table.
	for _, st := range res.Tables() {
		if len(st.Cols) == 1 && st.Cols[0] == "const" && st.NumRows() != 1 {
			t.Errorf("constant sub-table has %d rows", st.NumRows())
		}
	}
}

func TestDecomposeManyFDs(t *testing.T) {
	// Chicago-budget style: FundCode -> FundDescription, FundType.
	var rows [][]string
	for i := 0; i < 60; i++ {
		fund := i % 6
		dept := i % 10
		rows = append(rows, []string{
			strconv.Itoa(i + 1),
			strconv.Itoa(fund),
			fmt.Sprintf("Fund %d description", fund),
			fmt.Sprintf("Type %d", fund%2),
			strconv.Itoa(dept),
			fmt.Sprintf("Department %d", dept),
			strconv.Itoa((i*37)%1000 + 1000),
		})
	}
	tb := table.FromRows("budget", []string{
		"line_id", "fund_code", "fund_description", "fund_type",
		"dept_number", "dept_description", "amount",
	}, rows)
	res := Decompose(tb, fd.MaxLHS, rand.New(rand.NewSource(6)))
	if len(res.Parts) < 3 {
		t.Errorf("budget table decomposed into only %d sub-tables", len(res.Parts))
	}
	for _, st := range res.Tables() {
		if fds := fd.Discover(st, fd.MaxLHS); len(fds) != 0 {
			t.Errorf("sub-table %v not in BCNF", st.Cols)
		}
	}
}

func BenchmarkDecompose(b *testing.B) {
	tb := denormalized()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Decompose(tb, fd.MaxLHS, rng)
	}
}
