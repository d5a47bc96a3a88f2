package fd

import (
	"reflect"
	"slices"
	"strconv"
	"testing"

	"ogdp/internal/table"
	"ogdp/internal/values"
)

// fuzzAlphabet interleaves values with null spellings, so every
// alphabet prefix the decoder picks from has at least one null.
var fuzzAlphabet = []string{"a", "", "b", "NA", "c", "null", "d", "e"}

// fuzzNonNull lists the indices of fuzzAlphabet's non-null values.
var fuzzNonNull = []byte{0, 2, 4, 6, 7}

// decodeFuzzTable turns fuzz bytes into a table of at most 8 columns
// and 64 rows over a prefix of fuzzAlphabet, plus a list of distinct
// columns for DiscoverCols. The header bytes are the column count, the
// row count, the alphabet size, a column mask and a rotation of the
// masked columns; the cells follow row by row, and missing bytes read
// as zero.
func decodeFuzzTable(data []byte) (*table.Table, []int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nCols := 1 + next()%8
	nRows := 1 + next()%64
	alphabet := fuzzAlphabet[:2+next()%(len(fuzzAlphabet)-1)]
	mask, rot := next(), next()
	names := make([]string, nCols)
	for c := range names {
		names[c] = "c" + strconv.Itoa(c)
	}
	rows := make([][]string, nRows)
	for r := range rows {
		rows[r] = make([]string, nCols)
		for c := range rows[r] {
			rows[r][c] = alphabet[next()%len(alphabet)]
		}
	}
	var masked []int
	for c := 0; c < nCols; c++ {
		if mask&(1<<c) != 0 {
			masked = append(masked, c)
		}
	}
	if len(masked) == 0 {
		masked = []int{0}
	}
	k := rot % len(masked)
	cols := append(append([]int(nil), masked[k:]...), masked[:k]...)
	return table.FromRows("fuzz", names, rows), cols
}

// encodeFuzzTable is decodeFuzzTable's inverse for seeding: it keeps
// the first 8 columns and 64 rows of t, maps each column's non-null
// values to fuzzAlphabet's values by first-seen rank (modulo their
// count) and every null to "".
func encodeFuzzTable(t *table.Table, mask, rot byte) []byte {
	nCols, nRows := min(t.NumCols(), 8), min(t.NumRows(), 64)
	data := []byte{byte(nCols - 1), byte(nRows - 1), byte(len(fuzzAlphabet) - 2), mask, rot}
	rank := make([]map[string]int, nCols)
	for c := range rank {
		rank[c] = map[string]int{}
	}
	for r := 0; r < nRows; r++ {
		for c := 0; c < nCols; c++ {
			v := t.Value(c, r)
			if values.IsNull(v) {
				data = append(data, 1)
				continue
			}
			k, ok := rank[c][v]
			if !ok {
				k = len(rank[c])
				rank[c][v] = k
			}
			data = append(data, fuzzNonNull[k%len(fuzzNonNull)])
		}
	}
	return data
}

// FuzzDiscover checks that the three FD engines agree on arbitrary
// small tables with nulls and duplicate rows, and that a lattice's
// column-list search equals Discover on the built deduplicated
// projection.
func FuzzDiscover(f *testing.F) {
	parity := make([][]string, 16)
	for i := range parity {
		a, b, c := i&1, (i>>1)&1, (i>>2)&1
		parity[i] = []string{strconv.Itoa(a), strconv.Itoa(b), strconv.Itoa(c), strconv.Itoa(a ^ b ^ c)}
	}
	seeds := []*table.Table{
		cityTable(),
		table.FromRows("composite", []string{"a", "b", "c", "id"}, [][]string{
			{"0", "0", "p", "1"}, {"0", "1", "q", "2"}, {"1", "0", "r", "3"},
			{"1", "1", "s", "4"}, {"0", "0", "p", "5"}, {"1", "1", "s", "6"},
		}),
		table.FromRows("const", []string{"a", "const"}, [][]string{{"1", "same"}, {"2", "same"}, {"3", "same"}}),
		table.FromRows("nulls", []string{"a", "b", "id"}, [][]string{{"", "x", "1"}, {"n/a", "y", "2"}, {"v", "x", "3"}}),
		table.FromRows("parity", []string{"a", "b", "c", "parity"}, parity),
		benchTable(64, 8, 1),
	}
	for i, t := range seeds {
		f.Add(encodeFuzzTable(t, byte(0xff>>i), byte(i)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 5+8*64 {
			// The decoder reads no further, so a longer input repeats a
			// shorter one; skipping it keeps the fuzzer from spending its
			// budget minimizing long inputs byte by byte.
			return
		}
		tb, cols := decodeFuzzTable(data)
		fun := fdStrings(Discover(tb, MaxLHS))
		if naive := fdStrings(DiscoverNaive(tb, MaxLHS)); !reflect.DeepEqual(fun, naive) {
			t.Fatalf("Discover %v, DiscoverNaive %v\nrows %v", fun, naive, tb.Rows())
		}
		if tane := fdStrings(DiscoverTANE(tb, MaxLHS)); !reflect.DeepEqual(fun, tane) {
			t.Fatalf("Discover %v, DiscoverTANE %v\nrows %v", fun, tane, tb.Rows())
		}
		got := fdStrings(NewLattice(tb).DiscoverCols(cols, MaxLHS))
		want := fdStrings(Discover(dedupeRows(tb.Project(cols)), MaxLHS))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("DiscoverCols(%v) %v, built projection %v\nrows %v", cols, got, want, tb.Rows())
		}
		for a := 0; a < tb.NumCols(); a++ {
			lhs := slices.DeleteFunc(slices.Clone(cols), func(c int) bool { return c == a })
			if g3, naive := G3Error(tb, FD{LHS: lhs, RHS: a}), naiveG3(tb, lhs, a); g3 != naive {
				t.Fatalf("G3Error(%v -> %d) = %g, naive %g\nrows %v", lhs, a, g3, naive, tb.Rows())
			}
		}
	})
}
