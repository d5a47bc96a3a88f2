package table_test

import (
	"bytes"
	"testing"

	"ogdp/internal/csvio"
	"ogdp/internal/table"
)

// TestDistinctProjectEncodingBacked projects an encoding-backed table
// and its cell-backed twin onto column lists with and without
// duplicate rows. The projections serialize to the same CSV bytes, one
// that drops no row is itself encoding-backed, and the source never
// materializes its cells.
func TestDistinctProjectEncodingBacked(t *testing.T) {
	twin := table.FromRows("t.csv", []string{"id", "city", "prov"}, [][]string{
		{"1", "Wien", "W"},
		{"2", "Graz", ""},
		{"3", "Wien", "W"},
		{"4", "", "n/a"},
		{"5", "Graz", "null"},
	})
	encs := make([]*table.Encoding, twin.NumCols())
	for c := range encs {
		e := twin.Encoding(c)
		enc, err := table.EncodingFromParts(e.Dict, e.Codes, e.DictCounts, e.DictNull, e.ValueHashes(), e.ValueHashCounts())
		if err != nil {
			t.Fatal(err)
		}
		encs[c] = enc
	}
	src, err := table.FromEncodings(twin.Name, twin.Cols, encs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cols []int
		rows int
	}{
		{[]int{2, 0}, 5}, // ids are distinct: no row dropped
		{[]int{1, 2}, 3}, // rows 2 and 4 repeat rows 0 and 1 (null spellings agree)
		{[]int{2}, 2},
	} {
		p := src.DistinctProject(tc.cols)
		if p.NumRows() != tc.rows {
			t.Fatalf("cols %v: %d rows, want %d", tc.cols, p.NumRows(), tc.rows)
		}
		if shared := tc.rows == src.NumRows(); p.Encoded() != shared {
			t.Errorf("cols %v: projection Encoded() = %v, want %v", tc.cols, p.Encoded(), shared)
		}
		if got, want := csvio.Bytes(p), csvio.Bytes(twin.DistinctProject(tc.cols)); !bytes.Equal(got, want) {
			t.Errorf("cols %v: projection CSV\n%s\nwant\n%s", tc.cols, got, want)
		}
		if !src.Encoded() {
			t.Fatalf("cols %v: projecting materialized the source's cells", tc.cols)
		}
	}
}
