package search

import (
	"reflect"
	"strconv"
	"testing"

	"ogdp/internal/table"
)

// mkOverlap builds an id/payload table covering [from, to].
func mkOverlap(name string, from, to int) *table.Table {
	var rows [][]string
	for i := from; i <= to; i++ {
		rows = append(rows, []string{strconv.Itoa(i), name})
	}
	return table.FromRows(name, []string{"id", "payload"}, rows)
}

// sameResults asserts both engines answer the full query battery
// identically: top-k join, thresholded join, ranked hypotheses, and
// union twins, for every live table and an external query.
func sameResults(t *testing.T, patched, rebuilt *Engine, tables []*table.Table) {
	t.Helper()
	if patched.NumIndexed() != rebuilt.NumIndexed() {
		t.Fatalf("indexed columns: patched %d, rebuilt %d", patched.NumIndexed(), rebuilt.NumIndexed())
	}
	if patched.Skips() != rebuilt.Skips() {
		t.Fatalf("skip ledger: patched %+v, rebuilt %+v", patched.Skips(), rebuilt.Skips())
	}
	queries := append([]*table.Table{mkOverlap("external.csv", 5, 40)}, tables...)
	for qi, q := range queries {
		if q.NumCols() == 0 {
			continue
		}
		exclude := qi - 1 // tables[qi-1]; the external query excludes nothing
		if got, want := patched.TopKJoinable(q, 0, 10, exclude), rebuilt.TopKJoinable(q, 0, 10, exclude); !reflect.DeepEqual(got, want) {
			t.Errorf("TopKJoinable(%s): patched %+v, rebuilt %+v", q.Name, got, want)
		}
		if got, want := joinableFor(patched, q, 0, 0.2, exclude), joinableFor(rebuilt, q, 0, 0.2, exclude); !reflect.DeepEqual(got, want) {
			t.Errorf("joinableFor(%s): patched %+v, rebuilt %+v", q.Name, got, want)
		}
		if got, want := patched.RankTables(q, 10, exclude), rebuilt.RankTables(q, 10, exclude); !reflect.DeepEqual(got, want) {
			t.Errorf("RankTables(%s): patched %+v, rebuilt %+v", q.Name, got, want)
		}
		if got, want := unionableFor(patched, q, exclude), unionableFor(rebuilt, q, exclude); !reflect.DeepEqual(got, want) {
			t.Errorf("unionableFor(%s): patched %+v, rebuilt %+v", q.Name, got, want)
		}
	}
}

// TestIncrementalMatchesRebuild patches an engine through one
// add + update + delete round and checks every query surface against
// an engine built from scratch over the patched table set.
func TestIncrementalMatchesRebuild(t *testing.T) {
	// "exact" names the candidate path: the exact postings scan.
	t.Run("exact", func(t *testing.T) {
		initial := []*table.Table{
			mkOverlap("a.csv", 1, 30),
			mkOverlap("b.csv", 10, 40),
			mkOverlap("c.csv", 20, 60),
		}
		e := New(initial, Options{Meta: []TableMeta{
			{DatasetID: "d0", Category: "transport"},
			{DatasetID: "d1", Category: "transport"},
			{DatasetID: "d2", Category: "health"},
		}})

		// Delete b, update c to a new value range, add d.
		e.RemoveTable(1)
		updatedC := mkOverlap("c.csv", 25, 80)
		e.UpdateTable(2, updatedC, TableMeta{DatasetID: "d2", Category: "health"})
		added := mkOverlap("d.csv", 1, 50)
		if ti := e.AddTable(added, TableMeta{DatasetID: "d3", Category: "transport"}); ti != 3 {
			t.Fatalf("AddTable slot = %d, want 3", ti)
		}

		patchedTables := []*table.Table{
			initial[0],
			table.New("b.csv", nil, nil), // deleted placeholder
			updatedC,
			added,
		}
		rebuilt := New(patchedTables, Options{Meta: []TableMeta{
			{DatasetID: "d0", Category: "transport"},
			{},
			{DatasetID: "d2", Category: "health"},
			{DatasetID: "d3", Category: "transport"},
		}})
		sameResults(t, e, rebuilt, patchedTables)
	})
}

// TestRemoveTableRevertsSkips pins the skip-ledger bookkeeping: a
// removed table takes its gated columns' skip counts with it, and an
// update replaces them with the revision's.
func TestRemoveTableRevertsSkips(t *testing.T) {
	var fewRows [][]string
	for i := 0; i < 3; i++ { // below MinUniqueDefault, plus an all-null column
		fewRows = append(fewRows, []string{strconv.Itoa(i), ""})
	}
	few := table.FromRows("few.csv", []string{"id", "empty"}, fewRows)
	// big.csv: id indexed, constant payload below the bar; few.csv: id
	// below the bar, empty column with no values.
	e := New([]*table.Table{mkOverlap("big.csv", 1, 30), few}, Options{})
	if e.Skips() != (SkipStats{MinUnique: 2, Empty: 1}) {
		t.Fatalf("initial skips = %+v", e.Skips())
	}
	if e.NumIndexed() != 1 {
		t.Fatalf("initial indexed = %d, want 1", e.NumIndexed())
	}
	e.RemoveTable(1)
	if e.Skips() != (SkipStats{MinUnique: 1}) {
		t.Errorf("skips after remove = %+v, want only big.csv's payload", e.Skips())
	}
	e.UpdateTable(0, few, TableMeta{})
	if e.Skips() != (SkipStats{MinUnique: 1, Empty: 1}) {
		t.Errorf("skips after update = %+v", e.Skips())
	}
	if e.NumIndexed() != 0 {
		t.Errorf("indexed after update = %d, want 0", e.NumIndexed())
	}
}
