package keys

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ogdp/internal/fd"
	"ogdp/internal/gen"
	"ogdp/internal/normalize"
	"ogdp/internal/table"
	"ogdp/internal/values"
)

// latticeKey is the study's §4.1 search: the key read through the
// cardinality lattice after the table's BCNF decomposition has filled
// it, as core's per-table unit runs them.
func latticeKey(t *table.Table, seed int64) []int {
	lat := fd.NewLattice(t)
	normalize.DecomposeLattice(t, lat, fd.MaxLHS, rand.New(rand.NewSource(seed)))
	return MinCandidateKey(t, MaxCandidateKeySize, lat.Card)
}

// TestMinKeySizeFromLattice checks, on every table of the study's FD
// subset (10..10000 rows, 5..20 columns) of the four generated portals
// at seeds 1-3, that the key found through the lattice is the one
// Table.DistinctCount finds, so the Figure 6 histogram does not move.
func TestMinKeySizeFromLattice(t *testing.T) {
	scale, seeds := 0.05, []int64{1, 2, 3}
	if raceEnabled {
		scale, seeds = 0.02, []int64{1}
	}
	n, composite := 0, 0
	for _, seed := range seeds {
		for i, p := range gen.Profiles() {
			for j, tb := range gen.Generate(p, scale, seed+int64(i)).Tables() {
				if tb.NumRows() < 10 || tb.NumRows() > 10000 || tb.NumCols() < 5 || tb.NumCols() > 20 {
					continue
				}
				want := MinCandidateKey(tb, MaxCandidateKeySize, tb.DistinctCount)
				if got := latticeKey(tb, int64(j)); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %s table %d: lattice key %v, DistinctCount key %v", seed, p.Name, j, got, want)
				}
				if len(want) != MinCandidateKeySize(tb, MaxCandidateKeySize) {
					t.Fatalf("seed %d %s table %d: key %v, MinCandidateKeySize %d", seed, p.Name, j, want, MinCandidateKeySize(tb, MaxCandidateKeySize))
				}
				n++
				if len(want) > 1 {
					composite++
				}
			}
		}
	}
	if n == 0 || composite == 0 {
		t.Fatalf("%d FD-subset tables, %d with a composite key: the check is vacuous", n, composite)
	}
}

// keyFuzzAlphabet interleaves values with null spellings.
var keyFuzzAlphabet = []string{"a", "", "b", "NA", "c", "d", "e"}

// decodeKeyTable turns fuzz bytes into a table of at most 6 columns
// and 32 rows over a prefix of keyFuzzAlphabet. The header bytes are
// the column count, the row count and the alphabet size; the cells
// follow row by row, and missing bytes read as zero.
func decodeKeyTable(data []byte) *table.Table {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nCols := 1 + next()%6
	nRows := 1 + next()%32
	alphabet := keyFuzzAlphabet[:2+next()%(len(keyFuzzAlphabet)-1)]
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
	return table.FromRows("fuzz", names, rows)
}

// tupleCount counts the distinct tuples over cols from the raw cells,
// every null spelling one value: an oracle sharing no code with
// either card function.
func tupleCount(t *table.Table, cols []int) int {
	seen := map[string]bool{}
	for r := 0; r < t.NumRows(); r++ {
		var b strings.Builder
		for _, c := range cols {
			if v := t.Value(c, r); values.IsNull(v) {
				b.WriteString("N;")
			} else {
				b.WriteString(strconv.Quote(v) + ";")
			}
		}
		seen[b.String()] = true
	}
	return len(seen)
}

// FuzzMinKeySize checks that the candidate key search finds the same
// key counting through Table.DistinctCount, through a cold
// cardinality lattice, and through one the FD search has filled, and
// that a composite key it returns is a key.
func FuzzMinKeySize(f *testing.F) {
	f.Add([]byte{1, 3, 5, 0, 0, 0, 1, 1, 0, 1, 1})                   // (c0, c1) over a parity grid
	f.Add([]byte{2, 7, 5, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 0, 2, 0}) // nulls in a near-key
	f.Add([]byte{5, 31, 6})                                          // every cell the same
	f.Add([]byte{3, 15, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3+6*32 {
			return // the decoder reads no further
		}
		tb := decodeKeyTable(data)
		want := MinCandidateKey(tb, MaxCandidateKeySize, tb.DistinctCount)
		cold := MinCandidateKey(tb, MaxCandidateKeySize, fd.NewLattice(tb).Card)
		warm := fd.NewLattice(tb)
		warm.Discover(fd.MaxLHS)
		if got := MinCandidateKey(tb, MaxCandidateKeySize, warm.Card); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(cold, want) {
			t.Fatalf("key via searched lattice %v, cold lattice %v, DistinctCount %v\nrows %v", got, cold, want, tb.Rows())
		}
		if len(want) > 1 && tupleCount(tb, want) != tb.NumRows() {
			t.Fatalf("key %v has %d distinct tuples over %d rows\nrows %v", want, tupleCount(tb, want), tb.NumRows(), tb.Rows())
		}
	})
}
