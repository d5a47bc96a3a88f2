package fd

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"ogdp/internal/table"
	"ogdp/internal/values"
)

// tupleKey is row r's tuple over cols as a string built from the raw
// cells, every null spelling mapped to one token: an oracle for the
// canonical-code semantics that shares no code with the engine.
func tupleKey(t *table.Table, cols []int, r int) string {
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

// naiveCard counts the distinct tuples of the projection onto cols.
func naiveCard(t *table.Table, cols []int) int {
	seen := map[string]bool{}
	for r := 0; r < t.NumRows(); r++ {
		seen[tupleKey(t, cols, r)] = true
	}
	return len(seen)
}

// cardFixture builds a table from column-major cells.
func cardFixture(name string, cols ...[]string) *table.Table {
	names := make([]string, len(cols))
	rows := make([][]string, len(cols[0]))
	for c := range cols {
		names[c] = fmt.Sprintf("c%d", c)
	}
	for r := range rows {
		rows[r] = make([]string, len(cols))
		for c := range cols {
			rows[r][c] = cols[c][r]
		}
	}
	return table.FromRows(name, names, rows)
}

func cardEdgeTables() []*table.Table {
	rng := rand.New(rand.NewSource(5))
	repeat := func(v string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	draw := func(alphabet []string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return out
	}
	distinct := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = prefix + strconv.Itoa(i)
		}
		return out
	}
	nulls := []string{"", "NA", "null", " ", "n/a", "-"}

	wide := make([][]string, 20)
	for c := range wide {
		wide[c] = draw([]string{"a", "b", "c", "", "NA"}[:2+c%4], 40)
	}
	dupRow := [][]string{repeat("x", 12), repeat("", 12), repeat("7", 12)}
	return []*table.Table{
		cardFixture("all-null", draw(nulls, 30), draw(nulls, 30), repeat("", 30)),
		cardFixture("mixed-nulls", draw(append([]string{"a", "b"}, nulls...), 50),
			draw([]string{"x", "NULL", "N/A", ""}, 50), draw(nulls, 50)),
		cardFixture("one-row", []string{"a"}, []string{""}, []string{"NA"}),
		cardFixture("all-duplicate-rows", dupRow...),
		cardFixture("all-distinct", distinct("a", 40), distinct("b", 40), draw([]string{"p", "q"}, 40)),
		cardFixture("wide", wide...),
	}
}

// TestCardEdgeCases compares card with a string-keyed count for every
// column set of up to five columns, on tables built to stress the
// partition kernel: null-only and mixed-null columns, one row, rows
// that are all the same, all-distinct columns, and 20 columns. Each set
// is asked once on a shared engine, whose parent memo then chains
// across unrelated sets, and once through cardWith from each of its
// one-smaller subsets.
func TestCardEdgeCases(t *testing.T) {
	for _, tb := range cardEdgeTables() {
		t.Run(tb.Name, func(t *testing.T) {
			e := newEngine(tb)
			ew := newEngine(tb)
			for _, s := range enumerateSets(tb.NumCols(), 5) {
				cols := s.members(tb.NumCols())
				want := naiveCard(tb, cols)
				if got := e.card(s); got != want {
					t.Fatalf("card(%v) = %d, want %d", cols, got, want)
				}
				if len(cols) < 2 {
					continue
				}
				for _, a := range cols {
					delete(ew.cards, s)
					if got := ew.cardWith(s.without(a), a); got != want {
						t.Fatalf("cardWith(%v minus %d) = %d, want %d", cols, a, got, want)
					}
				}
			}
		})
	}
}

// naiveG3 is the g3 error of lhs → rhs from string-keyed groups: the
// fraction of rows outside their group's most common rhs value.
func naiveG3(t *table.Table, lhs []int, rhs int) float64 {
	n := t.NumRows()
	if n == 0 {
		return 0
	}
	counts := map[string]map[string]int{}
	for r := 0; r < n; r++ {
		k := tupleKey(t, lhs, r)
		if counts[k] == nil {
			counts[k] = map[string]int{}
		}
		counts[k][tupleKey(t, []int{rhs}, r)]++
	}
	keep := 0
	for _, byValue := range counts {
		best := 0
		for _, c := range byValue {
			best = max(best, c)
		}
		keep += best
	}
	return float64(n-keep) / float64(n)
}

// TestG3ErrorMatchesNaive compares g3 with the string-keyed count for
// the empty LHS and every LHS of up to three columns, and every RHS
// outside it, on the partition-kernel edge tables. One engine answers
// every question, as in DiscoverApproximate, so its partition chain
// carries across unrelated sets.
func TestG3ErrorMatchesNaive(t *testing.T) {
	for _, tb := range cardEdgeTables() {
		t.Run(tb.Name, func(t *testing.T) {
			e := newEngine(tb)
			for _, s := range append([]attrset{0}, enumerateSets(tb.NumCols(), 3)...) {
				lhs := s.members(tb.NumCols())
				for a := 0; a < tb.NumCols(); a++ {
					if s.has(a) {
						continue
					}
					if got, want := e.g3Error(s, a), naiveG3(tb, lhs, a); got != want {
						t.Fatalf("g3(%v -> %d) = %g, want %g", lhs, a, got, want)
					}
				}
			}
		})
	}
}
