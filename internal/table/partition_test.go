package table

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ogdp/internal/values"
)

// naiveKey is row r's tuple over cols as a string, every null spelling
// mapped to one token: the projection semantics Partition implements.
func naiveKey(t *Table, cols []int, r int) string {
	var b strings.Builder
	for _, c := range cols {
		v := t.Value(c, r)
		if values.IsNull(v) {
			b.WriteString("N;")
			continue
		}
		b.WriteString(strconv.Quote(v))
		b.WriteByte(';')
	}
	return b.String()
}

// naiveClasses groups the rows of t by their tuple over cols, keeping
// the classes of two or more rows, each ascending, in first-row order.
func naiveClasses(t *Table, cols []int) [][]int32 {
	idx := map[string]int{}
	var groups [][]int32
	for r := 0; r < t.NumRows(); r++ {
		k := naiveKey(t, cols, r)
		g, ok := idx[k]
		if !ok {
			g = len(groups)
			idx[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], int32(r))
	}
	var out [][]int32
	for _, g := range groups {
		if len(g) >= 2 {
			out = append(out, g)
		}
	}
	return out
}

// classesOf lists p's classes ordered by their first row.
func classesOf(p *Partition) [][]int32 {
	var out [][]int32
	start := int32(0)
	for _, end := range p.ends {
		out = append(out, append([]int32(nil), p.rows[start:end]...))
		start = end
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j][0] < out[j-1][0]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// randomNullTable draws a table over a small alphabet with several null
// spellings, so projections repeat tuples and nulls must compare equal.
func randomNullTable(rng *rand.Rand, nCols, nRows int) *Table {
	alphabet := []string{"a", "b", "c", "", "NA", "null", "-"}[:2+rng.Intn(6)]
	cols := make([]string, nCols)
	for c := range cols {
		cols[c] = "c" + strconv.Itoa(c)
	}
	rows := make([][]string, nRows)
	for r := range rows {
		rows[r] = make([]string, nCols)
		for c := range rows[r] {
			rows[r][c] = alphabet[rng.Intn(len(alphabet))]
		}
	}
	return FromRows("t", cols, rows)
}

// TestPartitionChainAgainstNaive refines column partitions in a chain
// and checks every step against naive grouping: the same classes, rows
// ascending within each, and Count equal to the refined partition's
// distinct count.
func TestPartitionChainAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var z Partitioner
	for trial := 0; trial < 200; trial++ {
		nCols := 1 + rng.Intn(5)
		nRows := 1 + rng.Intn(80)
		tb := randomNullTable(rng, nCols, nRows)
		var p, q Partition
		codes, size := tb.CanonCodes(0)
		z.Column(&p, codes, size)
		for c := 0; ; c++ {
			want := naiveClasses(tb, seq(c+1))
			if got := classesOf(&p); !reflect.DeepEqual(got, want) && len(want)+len(got) > 0 {
				t.Fatalf("trial %d cols 0..%d: classes %v, want %v", trial, c, got, want)
			}
			if c+1 == nCols {
				break
			}
			codes, size := tb.CanonCodes(c + 1)
			n := z.Count(&p, nRows, codes, size)
			z.Refine(&q, &p, codes, size)
			if want := nRows - q.Err(); n != want {
				t.Fatalf("trial %d: Count = %d, refined partition has %d tuples", trial, n, want)
			}
			p, q = q, p
		}
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestDistinctRowsAndCountAgainstNaive checks the table-level kernel
// on random projections, including 1-row and all-duplicate tables.
func TestDistinctRowsAndCountAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tables := []*Table{
		FromRows("one", []string{"a", "b"}, [][]string{{"x", ""}}),
		FromRows("dups", []string{"a", "b"}, [][]string{{"x", "NA"}, {"x", ""}, {"x", "null"}}),
	}
	for i := 0; i < 100; i++ {
		tables = append(tables, randomNullTable(rng, 2+rng.Intn(4), 1+rng.Intn(60)))
	}
	for i, tb := range tables {
		cols := rng.Perm(tb.NumCols())[:1+rng.Intn(tb.NumCols())]
		seen := map[string]bool{}
		var want []int
		for r := 0; r < tb.NumRows(); r++ {
			if k := naiveKey(tb, cols, r); !seen[k] {
				seen[k] = true
				want = append(want, r)
			}
		}
		if got := tb.DistinctRows(cols); !reflect.DeepEqual(got, want) {
			t.Fatalf("table %d cols %v: DistinctRows = %v, want %v", i, cols, got, want)
		}
		if got := tb.DistinctCount(cols); got != len(want) {
			t.Fatalf("table %d cols %v: DistinctCount = %d, want %d", i, cols, got, len(want))
		}
	}
}

// TestPartitionerGenerationWrap drives the stamp generation through its
// wrap. A first count over one class of all six rows stamps every code
// with generation 1. The next count, over the classes {0,1,2} and
// {3,4,5}, starts just below the wrap, so its second class is scanned
// at generation 1 again with codes the first class did not restamp:
// only the reset keeps their stale stamps from hiding them.
func TestPartitionerGenerationWrap(t *testing.T) {
	const n = 6
	var all, halves Partition
	var z Partitioner
	z.Column(&all, make([]uint32, n), 1)
	z.Column(&halves, []uint32{0, 0, 0, 1, 1, 1}, 2)
	distinct := []uint32{0, 1, 2, 3, 4, 5}

	z.gen = 0
	z.Count(&all, n, distinct, n)
	z.gen = math.MaxUint32 - 1
	if got := z.Count(&halves, n, distinct, n); got != n {
		t.Fatalf("Count across the wrap = %d, want %d", got, n)
	}
	if z.gen != 1 {
		t.Fatalf("generation after the wrap = %d, want 1", z.gen)
	}

	z.gen = 0
	z.Count(&all, n, distinct, n)
	z.gen = math.MaxUint32 - 1
	var q Partition
	pairs := []uint32{0, 1, 1, 2, 3, 3} // splits {3,4,5} into {3}, {4,5}
	z.Refine(&q, &halves, pairs, 4)
	if got, want := classesOf(&q), [][]int32{{1, 2}, {4, 5}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Refine across the wrap = %v, want %v", got, want)
	}
}
