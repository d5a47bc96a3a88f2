package fd

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"ogdp/internal/table"
)

// dirtyCityTable has city -> province except for a few dirty rows.
func dirtyCityTable(dirty int) *table.Table {
	var rows [][]string
	cities := []struct{ c, p string }{
		{"Waterloo", "ON"}, {"Toronto", "ON"}, {"Montreal", "QC"}, {"Vancouver", "BC"},
	}
	for i := 0; i < 100; i++ {
		c := cities[i%len(cities)]
		prov := c.p
		if i < dirty {
			prov = "XX" // data-entry error
		}
		rows = append(rows, []string{strconv.Itoa(i + 1), c.c, prov})
	}
	return table.FromRows("cities", []string{"id", "city", "province"}, rows)
}

func TestDiscoverApproximateRecoversDirtyFD(t *testing.T) {
	tb := dirtyCityTable(3)
	// Exact discovery must NOT find city -> province (3 violations).
	for _, f := range Discover(tb, MaxLHS) {
		if len(f.LHS) == 1 && f.LHS[0] == 1 && f.RHS == 2 {
			t.Fatal("exact discovery found the dirty FD")
		}
	}
	// Approximate discovery at 5% error must recover it.
	found := false
	for _, af := range DiscoverApproximate(tb, 2, 0.05) {
		if len(af.LHS) == 1 && af.LHS[0] == 1 && af.RHS == 2 {
			found = true
			if af.Error <= 0 || af.Error > 0.05 {
				t.Errorf("g3 error = %g, want (0, 0.05]", af.Error)
			}
		}
	}
	if !found {
		t.Error("approximate discovery missed the dirty city -> province FD")
	}
}

func TestApproximateIncludesExact(t *testing.T) {
	tb := dirtyCityTable(0)
	foundExact := false
	for _, af := range DiscoverApproximate(tb, 2, 0.05) {
		if len(af.LHS) == 1 && af.LHS[0] == 1 && af.RHS == 2 {
			foundExact = true
			if af.Error != 0 {
				t.Errorf("clean FD has error %g", af.Error)
			}
		}
	}
	if !foundExact {
		t.Error("exact FD missing from approximate results")
	}
}

func TestApproximateMinimality(t *testing.T) {
	tb := dirtyCityTable(0)
	for _, af := range DiscoverApproximate(tb, 3, 0.05) {
		if af.RHS == 2 && len(af.LHS) > 1 {
			for _, c := range af.LHS {
				if c == 1 {
					t.Errorf("non-minimal approximate FD: %v", af.FD)
				}
			}
		}
	}
}

func TestG3ErrorExactComputation(t *testing.T) {
	// Two groups: x -> y violated by exactly 2 of 6 rows.
	tb := table.FromRows("t", []string{"x", "y"}, [][]string{
		{"a", "1"}, {"a", "1"}, {"a", "2"},
		{"b", "3"}, {"b", "4"}, {"b", "3"},
	})
	got := G3Error(tb, FD{LHS: []int{0}, RHS: 1})
	want := 2.0 / 6.0
	if got != want {
		t.Errorf("g3 = %g, want %g", got, want)
	}
	if g := G3Error(table.New("e", []string{"a"}, [][]string{nil}), FD{LHS: nil, RHS: 0}); g != 0 {
		t.Errorf("empty table g3 = %g", g)
	}
}

func TestG3ZeroIffHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		nCols := 2 + rng.Intn(3)
		nRows := 2 + rng.Intn(30)
		cols := make([]string, nCols)
		for c := range cols {
			cols[c] = fmt.Sprintf("c%d", c)
		}
		rows := make([][]string, nRows)
		for r := range rows {
			rows[r] = make([]string, nCols)
			for c := range rows[r] {
				rows[r][c] = strconv.Itoa(rng.Intn(3))
			}
		}
		tb := table.FromRows("t", cols, rows)
		f := FD{LHS: []int{0}, RHS: 1}
		holds := Holds(tb, f)
		g3 := G3Error(tb, f)
		if holds != (g3 == 0) {
			t.Fatalf("trial %d: Holds=%v but g3=%g", trial, holds, g3)
		}
	}
}

func TestPlausibilityRealVsAccidental(t *testing.T) {
	// Real: city -> province with strong support and name-independent
	// evidence.
	real := dirtyCityTable(0)
	realScore := Plausibility(real, FD{LHS: []int{1}, RHS: 2})

	// Accidental: two measure columns agreeing on a 4-row table.
	acc := table.FromRows("t", []string{"id", "m1", "m2"}, [][]string{
		{"1", "107", "3"}, {"2", "54", "9"}, {"3", "107", "3"}, {"4", "54", "9"},
	})
	accScore := Plausibility(acc, FD{LHS: []int{1}, RHS: 2})

	if realScore <= accScore {
		t.Errorf("real FD scored %.2f, accidental %.2f", realScore, accScore)
	}
	if realScore < 0.5 {
		t.Errorf("real FD score %.2f, want >= 0.5", realScore)
	}
	if accScore > 0.5 {
		t.Errorf("accidental FD score %.2f, want < 0.5", accScore)
	}
}

func TestPlausibilityNameAffinity(t *testing.T) {
	// fund_code -> fund_description: shared stem.
	var rows [][]string
	for i := 0; i < 60; i++ {
		code := i % 8
		rows = append(rows, []string{strconv.Itoa(i + 1), strconv.Itoa(code), fmt.Sprintf("Fund %d description", code)})
	}
	tb := table.FromRows("budget", []string{"line_id", "fund_code", "fund_description"}, rows)
	f := FD{LHS: []int{1}, RHS: 2}
	s := Plausibility(tb, f)
	if s < 0.7 {
		t.Errorf("fund_code -> fund_description scored %.2f, want high", s)
	}
}

func TestPlausibilityBounds(t *testing.T) {
	tb := dirtyCityTable(0)
	for _, f := range Discover(tb, MaxLHS) {
		s := Plausibility(tb, f)
		if s < 0 || s > 1 {
			t.Errorf("score %g out of [0,1] for %v", s, f)
		}
	}
	if Plausibility(table.New("e", []string{"a"}, [][]string{nil}), FD{RHS: 0}) != 0 {
		t.Error("empty table should score 0")
	}
}

func BenchmarkDiscoverApproximate(b *testing.B) {
	tb := benchTable(2000, 8, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DiscoverApproximate(tb, 2, 0.02)
	}
}
