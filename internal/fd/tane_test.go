package fd

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"ogdp/internal/table"
)

func TestTANECityProvince(t *testing.T) {
	tb := cityTable()
	fds := DiscoverTANE(tb, MaxLHS)
	found := false
	for _, f := range fds {
		if len(f.LHS) == 1 && f.LHS[0] == 1 && f.RHS == 2 {
			found = true
		}
		if !Holds(tb, f) {
			t.Errorf("TANE FD does not hold: %v", f)
		}
	}
	if !found {
		t.Errorf("city -> province not found: %v", fdStrings(fds))
	}
}

// TestTANEAgainstFUN cross-validates the three engines on random
// tables: TANE, FUN, and exhaustive search must agree exactly.
func TestTANEAgainstFUN(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
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
		tane := DiscoverTANE(tb, 3)
		fun := Discover(tb, 3)
		if !reflect.DeepEqual(fdStrings(tane), fdStrings(fun)) {
			t.Fatalf("trial %d mismatch:\nTANE: %v\nFUN:  %v\nrows: %v",
				trial, fdStrings(tane), fdStrings(fun), rows)
		}
	}
}

func TestTANEWithNulls(t *testing.T) {
	tb := table.FromRows("t", []string{"a", "b", "id"}, [][]string{
		{"", "x", "1"},
		{"n/a", "y", "2"},
		{"v", "x", "3"},
	})
	tane := DiscoverTANE(tb, MaxLHS)
	fun := Discover(tb, MaxLHS)
	if !reflect.DeepEqual(fdStrings(tane), fdStrings(fun)) {
		t.Errorf("null handling differs:\nTANE: %v\nFUN:  %v", fdStrings(tane), fdStrings(fun))
	}
}

func TestTANEDegenerate(t *testing.T) {
	if got := DiscoverTANE(table.New("e", []string{"a"}, [][]string{nil}), MaxLHS); got != nil {
		t.Errorf("empty table: %v", got)
	}
	one := table.FromRows("one", []string{"a", "b"}, [][]string{{"x", "y"}})
	if got := DiscoverTANE(one, MaxLHS); len(got) != 0 {
		t.Errorf("single row: %v", fdStrings(got))
	}
}

func TestTANEConstantColumn(t *testing.T) {
	tb := table.FromRows("t", []string{"a", "const"}, [][]string{
		{"1", "same"}, {"2", "same"}, {"3", "same"},
	})
	fds := DiscoverTANE(tb, MaxLHS)
	found := false
	for _, f := range fds {
		if len(f.LHS) == 0 && f.RHS == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("constant column FD missing: %v", fdStrings(fds))
	}
}

func TestTANEMaxLHSBound(t *testing.T) {
	var rows [][]string
	for i := 0; i < 16; i++ {
		a, b, c := i&1, (i>>1)&1, (i>>2)&1
		rows = append(rows, []string{
			strconv.Itoa(a), strconv.Itoa(b), strconv.Itoa(c),
			strconv.Itoa(a ^ b ^ c), strconv.Itoa(i),
		})
	}
	tb := table.FromRows("t", []string{"a", "b", "c", "parity", "id"}, rows)
	for _, f := range DiscoverTANE(tb, 2) {
		if len(f.LHS) > 2 {
			t.Errorf("LHS bound violated: %v", f)
		}
	}
	got3 := fdStrings(DiscoverTANE(tb, 3))
	want3 := fdStrings(Discover(tb, 3))
	if !reflect.DeepEqual(got3, want3) {
		t.Errorf("maxLHS=3 mismatch:\nTANE: %v\nFUN:  %v", got3, want3)
	}
}

func BenchmarkDiscoverTANE(b *testing.B) {
	tb := benchTable(2000, 10, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DiscoverTANE(tb, MaxLHS)
	}
}
