package union

import (
	"fmt"
	"strconv"
	"testing"

	"ogdp/internal/table"
)

func yearValueTable(name, dataset string, startYear int) *table.Table {
	var rows [][]string
	for i := 0; i < 5; i++ {
		rows = append(rows, []string{strconv.Itoa(startYear + i), fmt.Sprintf("%d.5", i)})
	}
	t := table.FromRows(name, []string{"year", "value"}, rows)
	t.DatasetID = dataset
	return t
}

func TestFindGroups(t *testing.T) {
	corpus := []*table.Table{
		yearValueTable("a-2010.csv", "ds1", 2010),
		yearValueTable("a-2015.csv", "ds1", 2015),
		yearValueTable("b.csv", "ds2", 1990),
		table.FromRows("other.csv", []string{"id", "name"}, [][]string{{"1", "x"}}),
	}
	a := Find(corpus)
	if len(a.Groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(a.Groups))
	}
	g := a.Groups[0]
	if len(g.Tables) != 3 {
		t.Errorf("group size = %d, want 3", len(g.Tables))
	}
	if g.Datasets != 2 || g.SingleDataset() {
		t.Errorf("datasets = %d", g.Datasets)
	}
	if a.UniqueSchemas != 2 {
		t.Errorf("unique schemas = %d, want 2", a.UniqueSchemas)
	}
	if a.UnionableTables() != 3 {
		t.Errorf("unionable tables = %d", a.UnionableTables())
	}
}

func TestTypeMattersForSchema(t *testing.T) {
	// Same column names, different broad types: not unionable.
	num := table.FromRows("n.csv", []string{"year", "value"}, [][]string{
		{"2020", "1.5"}, {"2021", "2.5"},
	})
	txt := table.FromRows("t.csv", []string{"year", "value"}, [][]string{
		{"2020", "high"}, {"2021", "low"},
	})
	a := Find([]*table.Table{num, txt})
	if len(a.Groups) != 0 {
		t.Errorf("different-typed schemas grouped: %v", a.Groups)
	}
}

func TestDegrees(t *testing.T) {
	corpus := []*table.Table{
		yearValueTable("a.csv", "d", 2010),
		yearValueTable("b.csv", "d", 2011),
		yearValueTable("c.csv", "d", 2012),
	}
	a := Find(corpus)
	degs := a.Degrees()
	if len(degs) != 3 {
		t.Fatalf("degrees = %v", degs)
	}
	for _, d := range degs {
		if d != 2 {
			t.Errorf("degree = %d, want 2", d)
		}
	}
	if a.SingleDatasetGroups() != 1 {
		t.Errorf("single-dataset groups = %d", a.SingleDatasetGroups())
	}
}

func TestUnionConcatenates(t *testing.T) {
	corpus := []*table.Table{
		yearValueTable("a.csv", "d", 2010),
		yearValueTable("b.csv", "d", 2015),
	}
	a := Find(corpus)
	u := a.Union(a.Groups[0])
	if u.NumRows() != 10 || u.NumCols() != 2 {
		t.Errorf("union shape = %d×%d", u.NumCols(), u.NumRows())
	}
	if u.Value(0, 0) != "2010" || u.Value(0, 5) != "2015" {
		t.Errorf("union order wrong: %v", u.Column(0))
	}
	if got := a.Union(Group{}); got.NumRows() != 0 {
		t.Error("empty group union should be empty")
	}
}

func TestEmptyTablesIgnored(t *testing.T) {
	corpus := []*table.Table{
		table.New("empty1.csv", nil, nil),
		table.New("empty2.csv", nil, nil),
	}
	a := Find(corpus)
	if len(a.Groups) != 0 || a.UniqueSchemas != 0 {
		t.Errorf("no-column tables must be skipped: %+v", a)
	}
}

func TestGroupsSortedBySize(t *testing.T) {
	var corpus []*table.Table
	// 2-member group of schema A; 4-member group of schema B.
	for i := 0; i < 2; i++ {
		corpus = append(corpus, table.FromRows(fmt.Sprintf("a%d", i), []string{"x"}, [][]string{{"foo"}}))
	}
	for i := 0; i < 4; i++ {
		corpus = append(corpus, yearValueTable(fmt.Sprintf("b%d", i), "d", 2000+i))
	}
	a := Find(corpus)
	if len(a.Groups) != 2 || len(a.Groups[0].Tables) != 4 {
		t.Errorf("groups not sorted by size: %v", a.Groups)
	}
}

func BenchmarkFind(b *testing.B) {
	var corpus []*table.Table
	for i := 0; i < 500; i++ {
		corpus = append(corpus, yearValueTable(fmt.Sprintf("t%d", i), fmt.Sprintf("ds%d", i%100), 2000+i%20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Find(corpus)
	}
}
