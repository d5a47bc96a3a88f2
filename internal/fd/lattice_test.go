package fd

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"ogdp/internal/table"
)

// dedupeRows returns the projection of t onto cols without duplicate
// rows under the canonical-code convention (all null spellings equal),
// first occurrence kept, built row by row as an oracle independent of
// the table package's partitions.
func dedupeRows(t *table.Table, cols []int) *table.Table {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = t.Cols[c]
	}
	seen := map[string]bool{}
	var rows [][]string
	for r := 0; r < t.NumRows(); r++ {
		if k := tupleKey(t, cols, r); !seen[k] {
			seen[k] = true
			row := make([]string, len(cols))
			for i, c := range cols {
				row[i] = t.Value(c, r)
			}
			rows = append(rows, row)
		}
	}
	return table.FromRows(t.Name, names, rows)
}

// randomTable draws a small table from a tiny domain that includes two
// null spellings, so projections have duplicate rows and null cells.
func randomTable(rng *rand.Rand) *table.Table {
	nCols := 2 + rng.Intn(6)
	nRows := 1 + rng.Intn(40)
	domain := []string{"0", "1", "2", "3", "", "NA"}[:2+rng.Intn(5)]
	cols := make([]string, nCols)
	for c := range cols {
		cols[c] = fmt.Sprintf("c%d", c)
	}
	rows := make([][]string, nRows)
	for r := range rows {
		rows[r] = make([]string, nCols)
		for c := range rows[r] {
			rows[r][c] = domain[rng.Intn(len(domain))]
		}
	}
	// Plant an FD c0 -> c1 in about half of the tables.
	if rng.Intn(2) == 0 {
		for r := range rows {
			n, _ := strconv.Atoi(rows[r][0])
			rows[r][1] = strconv.Itoa(n % 2)
		}
	}
	return table.FromRows("t", cols, rows)
}

// TestLatticeColsMatchBuiltProjection checks the projection identity:
// the lattice's FDs for a column list, in any order, equal Discover on
// the deduplicated projection built as a table, and its Card is that
// table's row count.
func TestLatticeColsMatchBuiltProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		tb := randomTable(rng)
		lat := NewLattice(tb)
		for q := 0; q < 6; q++ {
			perm := rng.Perm(tb.NumCols())
			cols := perm[:1+rng.Intn(len(perm))]
			maxLHS := 1 + rng.Intn(MaxLHS)
			got := lat.DiscoverCols(cols, maxLHS)
			built := dedupeRows(tb, cols)
			want := Discover(built, maxLHS)
			if !reflect.DeepEqual(fdStrings(got), fdStrings(want)) {
				t.Fatalf("trial %d cols %v maxLHS %d:\nlattice: %v\nbuilt:   %v\nrows: %v",
					trial, cols, maxLHS, fdStrings(got), fdStrings(want), tb.Rows())
			}
			if n := lat.Card(cols); n != built.NumRows() {
				t.Fatalf("trial %d cols %v: Card = %d, built projection has %d rows", trial, cols, n, built.NumRows())
			}
		}
	}
}

// TestLatticeRootIsDiscoverCost checks that the root search matches
// DiscoverCost, and that its cardinality count is a snapshot later
// column-list searches on the same lattice do not change.
func TestLatticeRootIsDiscoverCost(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 60; trial++ {
		tb := randomTable(rng)
		wantFDs, wantCost := DiscoverCost(tb, MaxLHS)
		lat := NewLattice(tb)
		gotFDs, gotCost := lat.Discover(MaxLHS)
		if !reflect.DeepEqual(gotFDs, wantFDs) || gotCost != wantCost {
			t.Fatalf("trial %d: root %v %+v, DiscoverCost %v %+v", trial, gotFDs, gotCost, wantFDs, wantCost)
		}
		lat.DiscoverCols(rng.Perm(tb.NumCols())[:2], MaxLHS)
		if gotCost.Cardinalities != wantCost.Cardinalities {
			t.Fatalf("trial %d: cost snapshot moved", trial)
		}
	}
}

// TestLatticeRootKeepsDuplicateRows pins the one difference between
// the root search and the full column list: the root counts duplicate
// rows, so no column set of a table with a repeated row is a key,
// while its deduplicated projection has one.
func TestLatticeRootKeepsDuplicateRows(t *testing.T) {
	tb := table.FromRows("t", []string{"a", "b"}, [][]string{
		{"1", "x"}, {"1", "x"}, {"2", "x"}, {"3", "y"},
	})
	lat := NewLattice(tb)
	root, _ := lat.Discover(MaxLHS)
	if got := fdStrings(root); !reflect.DeepEqual(got, []string{"{0} -> 1"}) {
		t.Errorf("root FDs = %v, want [{0} -> 1]", got)
	}
	// Deduplicated, a is a key of (a, b), so a -> b is trivial.
	if got := lat.DiscoverCols([]int{0, 1}, MaxLHS); len(got) != 0 {
		t.Errorf("deduplicated FDs = %v, want none", fdStrings(got))
	}
	// Local indices: column 0 of the list is b, column 1 is a.
	if got := fdStrings(lat.DiscoverCols([]int{1, 0}, MaxLHS)); len(got) != 0 {
		t.Errorf("reordered deduplicated FDs = %v, want none", got)
	}
}

func TestLatticeEmpty(t *testing.T) {
	lat := NewLattice(table.New("e", []string{"a"}, [][]string{nil}))
	if fds, cost := lat.Discover(MaxLHS); fds != nil || cost != (Cost{}) {
		t.Errorf("empty table: %v %+v", fds, cost)
	}
	if fds := lat.DiscoverCols([]int{0}, MaxLHS); fds != nil {
		t.Errorf("empty table cols: %v", fds)
	}
}
