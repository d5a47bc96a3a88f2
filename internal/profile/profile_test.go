package profile

import (
	"math"
	"testing"
	"time"

	"ogdp/internal/table"
)

func mkTable(name, ds string, cols []string, rows [][]string) TableInfo {
	t := table.FromRows(name, cols, rows)
	t.DatasetID = ds
	var size int64
	for _, row := range rows {
		for _, v := range row {
			size += int64(len(v) + 1)
		}
	}
	return TableInfo{Table: t, DatasetID: ds, RawSize: size}
}

func testCorpus() *Corpus {
	return &Corpus{
		Portal: "T",
		Tables: []TableInfo{
			mkTable("a.csv", "d1", []string{"id", "v"}, [][]string{
				{"1", "x"}, {"2", ""}, {"3", "x"}, {"4", "n/a"},
			}),
			mkTable("b.csv", "d1", []string{"id", "w", "empty"}, [][]string{
				{"1", "1.5", ""}, {"2", "2.5", ""},
			}),
			mkTable("c.csv", "d2", []string{"k"}, [][]string{
				{"a"}, {"a"}, {"b"},
			}),
		},
	}
}

func TestSizes(t *testing.T) {
	c := testCorpus()
	ps := Sizes(c, false)
	if ps.Datasets != 2 || ps.Columns != 6 {
		t.Errorf("sizes = %+v", ps)
	}
	if ps.AvgTablesPerDS != 1.5 || ps.MaxTablesPerDS != 2 {
		t.Errorf("tables per dataset: %+v", ps)
	}
	if ps.Tables != 3 || ps.Readable != 3 {
		t.Errorf("funnel defaults: %+v", ps)
	}
	if ps.TotalBytes == 0 || ps.LargestTableBytes == 0 {
		t.Errorf("byte sizes: %+v", ps)
	}
}

func TestSizesWithFunnel(t *testing.T) {
	c := testCorpus()
	c.Funnel = FunnelCounts{Datasets: 10, Tables: 20, Downloadable: 8, Readable: 3}
	ps := Sizes(c, false)
	if ps.Datasets != 10 || ps.Tables != 20 || ps.Downloadable != 8 || ps.Readable != 3 {
		t.Errorf("funnel not propagated: %+v", ps)
	}
}

func TestCompression(t *testing.T) {
	// A highly repetitive large table must compress well.
	rows := make([][]string, 20000)
	for i := range rows {
		rows[i] = []string{"Ontario", "same-value", "123"}
	}
	ti := mkTable("rep.csv", "d", []string{"a", "b", "c"}, rows)
	c := &Corpus{Portal: "T", Tables: []TableInfo{ti}}
	ps := Sizes(c, true)
	if !ps.CompressionSampled || ps.CompressedBytes == 0 {
		t.Fatalf("compression missing: %+v", ps)
	}
	ratio := float64(ps.TotalBytes) / float64(ps.CompressedBytes)
	if ratio < 3 {
		t.Errorf("compression ratio = %.1f, want > 3 for repetitive data", ratio)
	}
}

func TestTableSizes(t *testing.T) {
	st := TableSizes(testCorpus())
	if st.MaxCols != 3 || st.MaxRows != 4 {
		t.Errorf("table sizes = %+v", st)
	}
	if st.MedianCols != 2 || st.MedianRows != 3 {
		t.Errorf("medians = %+v", st)
	}
	if math.Abs(st.AvgCols-2.0) > 1e-9 || math.Abs(st.AvgRows-3.0) > 1e-9 {
		t.Errorf("averages = %+v", st)
	}
}

func TestSizePercentiles(t *testing.T) {
	c := &Corpus{Portal: "T"}
	for i := 1; i <= 10; i++ {
		ti := mkTable("t.csv", "d", []string{"a"}, [][]string{{"x"}})
		ti.RawSize = int64(i * 100)
		c.Tables = append(c.Tables, ti)
	}
	pts := SizePercentiles(c, []float64{10, 50, 100})
	if pts[0].CutoffSize != 100 || pts[1].CutoffSize != 500 || pts[2].CutoffSize != 1000 {
		t.Errorf("cutoffs = %+v", pts)
	}
	if pts[2].Cumulative != 5500 {
		t.Errorf("cumulative = %d, want 5500", pts[2].Cumulative)
	}
	if pts[1].Cumulative != 1500 {
		t.Errorf("p50 cumulative = %d, want 1500", pts[1].Cumulative)
	}
	if empty := SizePercentiles(&Corpus{}, []float64{50}); empty[0].CutoffSize != 0 {
		t.Error("empty corpus percentile should be zero")
	}
}

func TestGrowth(t *testing.T) {
	c := testCorpus()
	c.Tables[0].Published = time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	c.Tables[1].Published = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	c.Tables[2].Published = time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	pts := Growth(c)
	if len(pts) != 2 || pts[0].Year != 2019 || pts[1].Year != 2020 {
		t.Fatalf("growth = %+v", pts)
	}
	if pts[1].Cumulative <= pts[0].Cumulative {
		t.Error("cumulative growth must be non-decreasing")
	}
}

func TestNulls(t *testing.T) {
	ns := Nulls(testCorpus())
	if len(ns.ColumnNullRatios) != 6 || len(ns.TableNullRatios) != 3 {
		t.Fatalf("null stats = %+v", ns)
	}
	// Columns with nulls: a.v (2/4), b.empty (2/2) -> 2 of 6.
	if math.Abs(ns.FracColsWithNulls-2.0/6) > 1e-9 {
		t.Errorf("FracColsWithNulls = %g", ns.FracColsWithNulls)
	}
	if math.Abs(ns.FracColsAllNull-1.0/6) > 1e-9 {
		t.Errorf("FracColsAllNull = %g", ns.FracColsAllNull)
	}
	if math.Abs(ns.FracColsHalfEmpty-1.0/6) > 1e-9 {
		t.Errorf("FracColsHalfEmpty = %g (only fully-null column exceeds half)", ns.FracColsHalfEmpty)
	}
}

func TestMetadata(t *testing.T) {
	c := testCorpus()
	c.Tables[0].Metadata = 1
	c.Tables[1].Metadata = 1 // same dataset d1; first wins
	c.Tables[2].Metadata = 2
	ms := Metadata(c, 0)
	if math.Abs(ms.Structured-0.5) > 1e-9 || math.Abs(ms.Unstructured-0.5) > 1e-9 {
		t.Errorf("metadata = %+v", ms)
	}
	if Metadata(&Corpus{}, 0).Structured != 0 {
		t.Error("empty corpus metadata should be zero")
	}
}

func TestUniqueness(t *testing.T) {
	us := Uniqueness(testCorpus())
	all := us["all"]
	// Excludes the all-null column: 5 columns counted.
	if all.Columns != 5 {
		t.Fatalf("all columns = %d, want 5", all.Columns)
	}
	num := us["number"]
	txt := us["text"]
	if num.Columns != 3 { // two id columns + w
		t.Errorf("number columns = %d", num.Columns)
	}
	if txt.Columns != 2 { // v and k
		t.Errorf("text columns = %d", txt.Columns)
	}
	if num.MaxUnique != 4 {
		t.Errorf("max unique = %d", num.MaxUnique)
	}
	if txt.AvgUniqueness >= num.AvgUniqueness {
		t.Errorf("text uniqueness (%.2f) should be below numeric (%.2f) here",
			txt.AvgUniqueness, num.AvgUniqueness)
	}
}

// TestIsNullValue: Figure 4 counts a null token such as "n/a" as a
// null value and an ordinary value as none.
func TestIsNullValue(t *testing.T) {
	ti := mkTable("t.csv", "d", []string{"a", "b"}, [][]string{{"n/a", "x"}, {"y", "z"}})
	got := Nulls(&Corpus{Portal: "T", Tables: []TableInfo{ti}}).ColumnNullRatios
	if len(got) != 2 || got[0] != 0.5 || got[1] != 0 {
		t.Errorf("column null ratios = %v, want [0.5 0]", got)
	}
}
