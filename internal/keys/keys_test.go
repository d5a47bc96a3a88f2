package keys

import (
	"math/rand"
	"strconv"
	"testing"

	"ogdp/internal/table"
)

func TestKeyColumns(t *testing.T) {
	tb := table.FromRows("t", []string{"id", "city", "code"}, [][]string{
		{"1", "Waterloo", "A"},
		{"2", "Toronto", "B"},
		{"3", "Waterloo", "C"},
	})
	ks := KeyColumns(tb)
	if len(ks) != 2 || ks[0] != 0 || ks[1] != 2 {
		t.Errorf("KeyColumns = %v", ks)
	}
}

func TestMinCandidateKeySizeOne(t *testing.T) {
	tb := table.FromRows("t", []string{"id", "v"}, [][]string{{"1", "a"}, {"2", "a"}})
	if got := MinCandidateKeySize(tb, 3); got != 1 {
		t.Errorf("size = %d, want 1", got)
	}
}

func TestMinCandidateKeySizeTwo(t *testing.T) {
	// (city, year) is a key; neither column alone is.
	tb := table.FromRows("t", []string{"city", "year", "pop"}, [][]string{
		{"Waterloo", "2020", "100"},
		{"Waterloo", "2021", "110"},
		{"Toronto", "2020", "100"},
		{"Toronto", "2021", "110"},
	})
	if got := MinCandidateKeySize(tb, 3); got != 2 {
		t.Errorf("size = %d, want 2", got)
	}
}

func TestMinCandidateKeySizeThree(t *testing.T) {
	// Three binary columns: all 8 combinations distinct only jointly.
	var rows [][]string
	for i := 0; i < 8; i++ {
		rows = append(rows, []string{
			strconv.Itoa(i & 1), strconv.Itoa((i >> 1) & 1), strconv.Itoa((i >> 2) & 1),
		})
	}
	tb := table.FromRows("t", []string{"a", "b", "c"}, rows)
	if got := MinCandidateKeySize(tb, 3); got != 3 {
		t.Errorf("size = %d, want 3", got)
	}
	// With maxSize 2 there is no key.
	if got := MinCandidateKeySize(tb, 2); got != 0 {
		t.Errorf("maxSize=2: size = %d, want 0", got)
	}
}

func TestNoCandidateKey(t *testing.T) {
	// Duplicate rows: no subset of columns can be a key.
	tb := table.FromRows("t", []string{"a", "b"}, [][]string{
		{"x", "y"},
		{"x", "y"},
	})
	if got := MinCandidateKeySize(tb, 3); got != 0 {
		t.Errorf("size = %d, want 0", got)
	}
}

func TestNullBlocksSingleKey(t *testing.T) {
	tb := table.FromRows("t", []string{"id", "v"}, [][]string{
		{"1", "a"}, {"", "b"}, {"3", "a"},
	})
	// id has a null, so it is not a single key; v repeats; but {id, v}
	// distinguishes all rows (the null cell counts as a value at the
	// instance level).
	if len(KeyColumns(tb)) > 0 {
		t.Error("column with null must not be a key")
	}
	if got := MinCandidateKeySize(tb, 3); got != 2 {
		t.Errorf("size = %d, want 2", got)
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	empty := table.New("e", []string{"a"}, [][]string{nil})
	if got := MinCandidateKeySize(empty, 3); got != 0 {
		t.Errorf("empty table size = %d", got)
	}
	noCols := table.New("n", nil, nil)
	if got := MinCandidateKeySize(noCols, 3); got != 0 {
		t.Errorf("no-column table size = %d", got)
	}
}

func TestMaxSizeClamped(t *testing.T) {
	tb := table.FromRows("t", []string{"a"}, [][]string{{"x"}, {"y"}})
	if got := MinCandidateKeySize(tb, 5); got != 1 {
		t.Errorf("clamped search = %d", got)
	}
}

func TestSizeDistribution(t *testing.T) {
	t1 := table.FromRows("k1", []string{"id"}, [][]string{{"1"}, {"2"}})
	t2 := table.FromRows("k0", []string{"a"}, [][]string{{"x"}, {"x"}})
	dist := SizeDistribution([]*table.Table{t1, t2, t1}, 3)
	if dist[1] != 2 || dist[0] != 1 {
		t.Errorf("dist = %v", dist)
	}
}

// TestAgainstBruteForce cross-checks MinCandidateKeySize against an
// exhaustive row-comparison implementation on random small tables.
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		nCols := 2 + rng.Intn(4)
		nRows := 2 + rng.Intn(30)
		cols := make([]string, nCols)
		for c := range cols {
			cols[c] = string(rune('a' + c))
		}
		rows := make([][]string, nRows)
		for r := range rows {
			rows[r] = make([]string, nCols)
			for c := range rows[r] {
				rows[r][c] = strconv.Itoa(rng.Intn(4))
			}
		}
		tb := table.FromRows("t", cols, rows)
		got := MinCandidateKeySize(tb, 3)
		want := bruteMinKey(rows, nCols, 3)
		if got != want {
			t.Fatalf("trial %d: got %d want %d rows=%v", trial, got, want, rows)
		}
	}
}

func bruteMinKey(rows [][]string, nCols, maxSize int) int {
	for size := 1; size <= maxSize && size <= nCols; size++ {
		combos := combinations(nCols, size)
		for _, combo := range combos {
			seen := make(map[string]struct{})
			dup := false
			for _, row := range rows {
				key := ""
				for _, c := range combo {
					key += row[c] + "\x00"
				}
				if _, ok := seen[key]; ok {
					dup = true
					break
				}
				seen[key] = struct{}{}
			}
			if !dup {
				return size
			}
		}
	}
	return 0
}

func combinations(n, k int) [][]int {
	var out [][]int
	combo := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			out = append(out, append([]int(nil), combo...))
			return
		}
		for i := start; i < n; i++ {
			combo[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	return out
}

func BenchmarkMinCandidateKeySize(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	nRows := 5000
	rows := make([][]string, nRows)
	for r := range rows {
		rows[r] = []string{
			strconv.Itoa(rng.Intn(50)),
			strconv.Itoa(rng.Intn(50)),
			strconv.Itoa(rng.Intn(50)),
			strconv.Itoa(rng.Intn(10)),
			strconv.Itoa(rng.Intn(10)),
		}
	}
	tb := table.FromRows("t", []string{"a", "b", "c", "d", "e"}, rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinCandidateKeySize(tb, 3)
	}
}
