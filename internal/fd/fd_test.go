package fd

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"ogdp/internal/table"
)

// cityTable has the classic City -> Province FD plus a key column.
func cityTable() *table.Table {
	return table.FromRows("cities", []string{"id", "city", "province"}, [][]string{
		{"1", "Waterloo", "ON"},
		{"2", "Toronto", "ON"},
		{"3", "Montreal", "QC"},
		{"4", "Waterloo", "ON"},
		{"5", "Quebec City", "QC"},
	})
}

func fdStrings(fds []FD) []string {
	out := make([]string, len(fds))
	for i, f := range fds {
		out[i] = f.String()
	}
	return out
}

func TestDiscoverCityProvince(t *testing.T) {
	tb := cityTable()
	fds := Discover(tb, MaxLHS)
	// Expected minimal non-trivial FDs: city -> province. id is a key
	// (trivial LHS); province -/-> city (QC maps to two cities).
	want := FD{LHS: []int{1}, RHS: 2}
	found := false
	for _, f := range fds {
		if reflect.DeepEqual(f, want) {
			found = true
		}
		if len(f.LHS) == 1 && f.LHS[0] == 0 {
			t.Errorf("FD from key column must be excluded as trivial: %v", f)
		}
		if !Holds(tb, f) {
			t.Errorf("discovered FD does not hold: %v", f)
		}
	}
	if !found {
		t.Errorf("city -> province not found; got %v", fdStrings(fds))
	}
}

func TestDiscoverNoFDs(t *testing.T) {
	// All columns keys: every FD is trivial.
	tb := table.FromRows("t", []string{"a", "b"}, [][]string{
		{"1", "x"}, {"2", "y"}, {"3", "z"},
	})
	if fds := Discover(tb, MaxLHS); len(fds) != 0 {
		t.Errorf("expected no FDs, got %v", fdStrings(fds))
	}
	if HasNontrivialFD(tb, MaxLHS) {
		t.Error("HasNontrivialFD = true")
	}
}

func TestDiscoverConstantColumn(t *testing.T) {
	tb := table.FromRows("t", []string{"a", "const"}, [][]string{
		{"1", "same"}, {"2", "same"}, {"3", "same"},
	})
	fds := Discover(tb, MaxLHS)
	found := false
	for _, f := range fds {
		if len(f.LHS) == 0 && f.RHS == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("constant column FD (empty LHS) not found: %v", fdStrings(fds))
	}
}

func TestDiscoverCompositeLHS(t *testing.T) {
	// (a, b) -> c but neither a -> c nor b -> c.
	tb := table.FromRows("t", []string{"a", "b", "c", "id"}, [][]string{
		{"0", "0", "p", "1"},
		{"0", "1", "q", "2"},
		{"1", "0", "r", "3"},
		{"1", "1", "s", "4"},
		{"0", "0", "p", "5"},
		{"1", "1", "s", "6"},
	})
	fds := Discover(tb, MaxLHS)
	want := FD{LHS: []int{0, 1}, RHS: 2}
	found := false
	for _, f := range fds {
		if reflect.DeepEqual(f, want) {
			found = true
		}
	}
	if !found {
		t.Errorf("(a,b) -> c not found; got %v", fdStrings(fds))
	}
	// a -> c must NOT be reported (violated by rows 1,2).
	for _, f := range fds {
		if len(f.LHS) == 1 && f.LHS[0] == 0 && f.RHS == 2 {
			t.Errorf("a -> c wrongly reported")
		}
	}
}

func TestMinimality(t *testing.T) {
	// city -> province implies (city, extra) -> province; only the
	// minimal one may be reported.
	tb := table.FromRows("t", []string{"city", "province", "extra"}, [][]string{
		{"Waterloo", "ON", "1"},
		{"Toronto", "ON", "2"},
		{"Montreal", "QC", "3"},
		{"Waterloo", "ON", "4"},
	})
	fds := Discover(tb, MaxLHS)
	for _, f := range fds {
		if f.RHS == 1 && len(f.LHS) > 1 {
			t.Errorf("non-minimal FD reported: %v", f)
		}
	}
}

func TestMaxLHSBound(t *testing.T) {
	// FD requires 3 attributes on the LHS: parity bit determined by
	// (a, b, c) jointly.
	var rows [][]string
	for i := 0; i < 16; i++ {
		a, b, c := i&1, (i>>1)&1, (i>>2)&1
		rows = append(rows, []string{
			strconv.Itoa(a), strconv.Itoa(b), strconv.Itoa(c),
			strconv.Itoa(a ^ b ^ c), strconv.Itoa(i),
		})
	}
	tb := table.FromRows("t", []string{"a", "b", "c", "parity", "id"}, rows)
	fdsAt2 := Discover(tb, 2)
	for _, f := range fdsAt2 {
		if f.RHS == 3 {
			t.Errorf("parity FD found with maxLHS=2: %v", f)
		}
	}
	fdsAt3 := Discover(tb, 3)
	found := false
	for _, f := range fdsAt3 {
		if f.RHS == 3 && len(f.LHS) == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("parity FD not found with maxLHS=3: %v", fdStrings(fdsAt3))
	}
}

func TestNullsAreOneValue(t *testing.T) {
	// "" and "n/a" are the same (null) LHS value with conflicting RHS
	// values, so a -> b must not hold.
	tb := table.FromRows("t", []string{"a", "b", "id"}, [][]string{
		{"", "x", "1"},
		{"n/a", "y", "2"},
		{"v", "x", "3"},
	})
	for _, f := range Discover(tb, MaxLHS) {
		if len(f.LHS) == 1 && f.LHS[0] == 0 && f.RHS == 1 {
			t.Errorf("a -> b reported despite null conflict")
		}
	}
}

func TestDegenerateInputs(t *testing.T) {
	if fds := Discover(table.New("e", []string{"a"}, [][]string{nil}), MaxLHS); fds != nil {
		t.Errorf("empty table: %v", fds)
	}
	if fds := Discover(table.New("e", nil, nil), MaxLHS); fds != nil {
		t.Errorf("no columns: %v", fds)
	}
	one := table.FromRows("one", []string{"a", "b"}, [][]string{{"x", "y"}})
	// Single-row tables: every column set is a key, so no non-trivial FDs.
	if fds := Discover(one, MaxLHS); len(fds) != 0 {
		t.Errorf("single row: %v", fdStrings(fds))
	}
}

func TestSimpleFDs(t *testing.T) {
	fds := []FD{
		{LHS: []int{1}, RHS: 2},
		{LHS: []int{0, 1}, RHS: 3},
		{LHS: nil, RHS: 4},
	}
	simple := SimpleFDs(fds)
	if len(simple) != 1 || simple[0].RHS != 2 {
		t.Errorf("SimpleFDs = %v", simple)
	}
}

func TestFormatAndString(t *testing.T) {
	tb := cityTable()
	f := FD{LHS: []int{1}, RHS: 2}
	if got := f.Format(tb); got != "city -> province" {
		t.Errorf("Format = %q", got)
	}
	if got := f.String(); got != "{1} -> 2" {
		t.Errorf("String = %q", got)
	}
}

// TestAgainstNaive cross-validates the FUN engine against exhaustive
// search on random tables.
func TestAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		nCols := 2 + rng.Intn(5)
		nRows := 2 + rng.Intn(40)
		domain := 1 + rng.Intn(5)
		cols := make([]string, nCols)
		for c := range cols {
			cols[c] = fmt.Sprintf("c%d", c)
		}
		rows := make([][]string, nRows)
		for r := range rows {
			rows[r] = make([]string, nCols)
			for c := range rows[r] {
				rows[r][c] = strconv.Itoa(rng.Intn(domain))
			}
		}
		tb := table.FromRows("t", cols, rows)
		got := Discover(tb, 3)
		want := DiscoverNaive(tb, 3)
		if !reflect.DeepEqual(fdStrings(got), fdStrings(want)) {
			t.Fatalf("trial %d mismatch:\nFUN:   %v\nnaive: %v\nrows: %v",
				trial, fdStrings(got), fdStrings(want), rows)
		}
		for _, f := range got {
			if !Holds(tb, f) {
				t.Fatalf("trial %d: FD %v does not hold", trial, f)
			}
		}
	}
}

func TestHasNontrivialFDAgreesWithDiscover(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		nCols := 2 + rng.Intn(4)
		nRows := 2 + rng.Intn(25)
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
		if HasNontrivialFD(tb, 3) != (len(Discover(tb, 3)) > 0) {
			t.Fatalf("trial %d: HasNontrivialFD disagrees with Discover", trial)
		}
	}
}

func TestHoldsRejectsViolation(t *testing.T) {
	tb := table.FromRows("t", []string{"a", "b"}, [][]string{
		{"x", "1"}, {"x", "2"},
	})
	if Holds(tb, FD{LHS: []int{0}, RHS: 1}) {
		t.Error("Holds accepted a violated FD")
	}
}

func benchTable(nRows, nCols int, seed int64) *table.Table {
	rng := rand.New(rand.NewSource(seed))
	cols := make([]string, nCols)
	for c := range cols {
		cols[c] = fmt.Sprintf("c%d", c)
	}
	rows := make([][]string, nRows)
	for r := range rows {
		rows[r] = make([]string, nCols)
		// Plant FDs: c0 determines c1; (c2, c3) determine c4.
		c0 := rng.Intn(40)
		rows[r][0] = strconv.Itoa(c0)
		rows[r][1] = strconv.Itoa(c0 % 7)
		c2, c3 := rng.Intn(12), rng.Intn(12)
		rows[r][2] = strconv.Itoa(c2)
		rows[r][3] = strconv.Itoa(c3)
		rows[r][4] = strconv.Itoa((c2*13 + c3) % 50)
		for c := 5; c < nCols; c++ {
			rows[r][c] = strconv.Itoa(rng.Intn(100))
		}
	}
	return table.FromRows("bench", cols, rows)
}

func BenchmarkDiscoverFUN(b *testing.B) {
	tb := benchTable(2000, 10, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Discover(tb, MaxLHS)
	}
}

func BenchmarkDiscoverNaive(b *testing.B) {
	tb := benchTable(2000, 10, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DiscoverNaive(tb, MaxLHS)
	}
}
