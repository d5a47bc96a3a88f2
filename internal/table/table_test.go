package table

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"ogdp/internal/values"
)

func sample() *Table {
	return FromRows("t.csv", []string{"id", "city", "province"}, [][]string{
		{"1", "Waterloo", "ON"},
		{"2", "Toronto", "ON"},
		{"3", "Montreal", "QC"},
		{"4", "Waterloo", "ON"},
	})
}

func TestBasics(t *testing.T) {
	tb := sample()
	if tb.NumRows() != 4 || tb.NumCols() != 3 {
		t.Fatalf("shape = %d×%d", tb.NumCols(), tb.NumRows())
	}
	if tb.ColumnIndex("city") != 1 || tb.ColumnIndex("nope") != -1 {
		t.Error("ColumnIndex wrong")
	}
	row := tb.Row(2)
	if row[0] != "3" || row[1] != "Montreal" || row[2] != "QC" {
		t.Errorf("Row(2) = %v", row)
	}
	if got := len(tb.Rows()); got != 4 {
		t.Errorf("Rows() = %d", got)
	}
	if s := tb.String(); s != "t.csv (3 cols × 4 rows)" {
		t.Errorf("String() = %q", s)
	}
}

func TestNewPanicsOnRaggedCells(t *testing.T) {
	tb := New("x", []string{"a", "b"}, [][]string{{"1", "3"}, {"2", "4"}})
	if tb.NumRows() != 2 || tb.Value(1, 1) != "4" {
		t.Errorf("New built %d rows, Value(1,1) = %q", tb.NumRows(), tb.Value(1, 1))
	}
	for _, tc := range []struct {
		name string
		data [][]string
	}{
		{"too few columns", [][]string{{"1"}}},
		{"too many columns", [][]string{{"1"}, {"2"}, {"3"}}},
		{"columns differ in length", [][]string{{"1", "3"}, {"2"}}},
		{"nil cells for named columns", nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New should panic", tc.name)
				}
			}()
			New("x", []string{"a", "b"}, tc.data)
		}()
	}
}

func TestFromRowsPadding(t *testing.T) {
	tb := FromRows("x", []string{"a", "b", "c"}, [][]string{
		{"1"},
		{"1", "2", "3", "4"},
	})
	if tb.Value(1, 0) != "" || tb.Value(2, 1) != "3" {
		t.Errorf("padding/truncation wrong: %+v", tb.Rows())
	}
}

func TestProfile(t *testing.T) {
	tb := sample()
	id := tb.Profile(0)
	if !id.IsKey() || id.Uniqueness() != 1.0 || id.Type != values.ColIncrementalInt {
		t.Errorf("id profile = %+v", id)
	}
	prov := tb.Profile(2)
	if prov.IsKey() || prov.Distinct != 2 || prov.Uniqueness() != 0.5 {
		t.Errorf("province profile = %+v", prov)
	}
}

func TestProfileNulls(t *testing.T) {
	tb := FromRows("x", []string{"a"}, [][]string{{""}, {"n/a"}, {"v"}, {"v"}})
	p := tb.Profile(0)
	if p.Nulls != 2 || p.Distinct != 1 || p.NullRatio() != 0.5 {
		t.Errorf("profile = %+v", p)
	}
	if p.IsKey() {
		t.Error("column with nulls cannot be a key")
	}
}

func TestEmptyProfile(t *testing.T) {
	tb := New("x", []string{"a"}, [][]string{nil})
	p := tb.Profile(0)
	if p.NullRatio() != 0 || p.Uniqueness() != 0 || p.IsKey() {
		t.Errorf("empty profile = %+v", p)
	}
}

func TestProject(t *testing.T) {
	tb := sample()
	p := tb.DistinctProject([]int{2, 0})
	if p.NumCols() != 2 || p.Cols[0] != "province" || p.Cols[1] != "id" {
		t.Errorf("DistinctProject cols = %v", p.Cols)
	}
	if p.NumRows() != 4 || p.Value(0, 0) != "ON" || p.Value(1, 3) != "4" {
		t.Errorf("DistinctProject data wrong")
	}
	// Row 3 repeats row 0's city and province and is dropped.
	d := tb.DistinctProject([]int{1, 2})
	want := [][]string{{"Waterloo", "ON"}, {"Toronto", "ON"}, {"Montreal", "QC"}}
	if got := d.Rows(); !reflect.DeepEqual(got, want) {
		t.Errorf("DistinctProject rows = %v, want %v", got, want)
	}
}

func TestSchemaKey(t *testing.T) {
	a := FromRows("a", []string{"Year", "Value"}, [][]string{{"2020", "1.5"}, {"2021", "2.5"}})
	b := FromRows("b", []string{"year", " value "}, [][]string{{"1999", "9.25"}, {"1998", "8.75"}})
	if a.SchemaKey() != b.SchemaKey() {
		t.Errorf("case/space-insensitive schemas should match:\n%q\n%q", a.SchemaKey(), b.SchemaKey())
	}
	c := FromRows("c", []string{"year", "value"}, [][]string{{"2020", "high"}, {"2021", "low"}})
	if a.SchemaKey() == c.SchemaKey() {
		t.Error("different broad types should not match")
	}
	d := FromRows("d", []string{"value", "year"}, [][]string{{"1.5", "2020"}, {"2.0", "2021"}})
	if a.SchemaKey() == d.SchemaKey() {
		t.Error("column order matters for schema identity")
	}
}

func TestDistinctCount(t *testing.T) {
	tb := sample()
	if got := tb.DistinctCount([]int{2}); got != 2 {
		t.Errorf("distinct(province) = %d", got)
	}
	if got := tb.DistinctCount([]int{1, 2}); got != 3 {
		t.Errorf("distinct(city,province) = %d", got)
	}
	if got := tb.DistinctCount([]int{0, 1, 2}); got != 4 {
		t.Errorf("distinct(all) = %d", got)
	}
	if got := tb.DistinctCount(nil); got != 1 {
		t.Errorf("distinct(empty projection) = %d", got)
	}
	empty := New("e", []string{"a"}, [][]string{nil})
	if got := empty.DistinctCount(nil); got != 0 {
		t.Errorf("distinct on empty table = %d", got)
	}
}

func TestDistinctCountWithNulls(t *testing.T) {
	tb := FromRows("x", []string{"a"}, [][]string{{"v"}, {""}, {"v"}, {"n/a"}})
	// "v" plus one null bucket; note "" and "n/a" hash differently but both
	// are null — single-column distinct uses the profile (1 distinct + null).
	if got := tb.DistinctCount([]int{0}); got != 2 {
		t.Errorf("distinct with nulls = %d, want 2", got)
	}
}

func TestDistinctCountAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		nRows := 1 + rng.Intn(200)
		rows := make([][]string, nRows)
		for r := range rows {
			rows[r] = []string{
				strconv.Itoa(rng.Intn(5)),
				strconv.Itoa(rng.Intn(7)),
				strconv.Itoa(rng.Intn(3)),
			}
		}
		tb := FromRows("t", []string{"a", "b", "c"}, rows)
		cols := []int{0, 2}
		naive := make(map[string]struct{})
		for _, row := range rows {
			naive[row[0]+"\x00"+row[2]] = struct{}{}
		}
		if got := tb.DistinctCount(cols); got != len(naive) {
			t.Fatalf("trial %d: DistinctCount = %d, naive = %d", trial, got, len(naive))
		}
	}
}

func TestDistinctCountProjectionSensitivity(t *testing.T) {
	tb := FromRows("x", []string{"a", "b"}, [][]string{{"ab", ""}, {"a", "b"}})
	if got := tb.DistinctCount([]int{0, 1}); got != 2 {
		t.Errorf("rows (ab, '') and (a, b) must count as two tuples, got %d", got)
	}
}

func TestHashValueStable(t *testing.T) {
	f := func(s string) bool {
		return HashValue(s) == HashValue(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProfilesAll(t *testing.T) {
	tb := sample()
	ps := tb.Profiles()
	if len(ps) != 3 || ps[1].Name != "city" {
		t.Errorf("Profiles = %v", ps)
	}
}

func BenchmarkProfile(b *testing.B) {
	rows := make([][]string, 10000)
	for r := range rows {
		rows[r] = []string{strconv.Itoa(r), fmt.Sprintf("city-%d", r%50), "ON"}
	}
	for i := 0; i < b.N; i++ {
		tb := FromRows("t", []string{"id", "city", "province"}, rows)
		tb.Profiles()
	}
}

func BenchmarkDistinctCount(b *testing.B) {
	rows := make([][]string, 10000)
	for r := range rows {
		rows[r] = []string{strconv.Itoa(r % 100), strconv.Itoa(r % 37), strconv.Itoa(r % 11)}
	}
	tb := FromRows("t", []string{"a", "b", "c"}, rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.DistinctCount([]int{0, 1, 2})
	}
}

func TestIntersectSize(t *testing.T) {
	for _, c := range []struct {
		a, b []uint64
		want int
	}{
		{nil, nil, 0},
		{[]uint64{1, 2, 3}, nil, 0},
		{[]uint64{1, 3, 5, 7}, []uint64{2, 3, 4, 7, 9}, 2},
		{[]uint64{4, 8}, []uint64{4, 8}, 2},
		{[]uint64{1, 2}, []uint64{3, 4}, 0},
	} {
		if got := IntersectSize(c.a, c.b); got != c.want {
			t.Errorf("IntersectSize(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := IntersectSize(c.b, c.a); got != c.want {
			t.Errorf("IntersectSize(%v, %v) = %d, want %d", c.b, c.a, got, c.want)
		}
	}
}

func TestNameTokens(t *testing.T) {
	for _, tc := range []struct {
		name string
		want string
	}{
		{"Species_ID", "species,id"},
		{"species id", "species,id"},
		{"housing-2019.csv", "housing,csv"},
		{"part2", "part2"},
		{"2019", ""},
		{"", ""},
	} {
		if got := strings.Join(NameTokens(tc.name), ","); got != tc.want {
			t.Errorf("NameTokens(%q) = %q, want %q", tc.name, got, tc.want)
		}
	}
}
