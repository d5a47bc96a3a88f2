package table

import (
	"reflect"
	"testing"
)

// extTable builds an encoding-backed clone of a regular table by
// stealing its published encodings, as the colstore reader does.
func extTable(t *testing.T, src *Table) *Table {
	t.Helper()
	encs := make([]*Encoding, src.NumCols())
	for c := range encs {
		e := src.Encoding(c)
		enc, err := EncodingFromParts(e.Dict, e.Codes, e.DictCounts, e.DictNull, e.hashes, e.hashCounts)
		if err != nil {
			t.Fatalf("EncodingFromParts: %v", err)
		}
		encs[c] = enc
	}
	ext, err := FromEncodings(src.Name, src.Cols, encs)
	if err != nil {
		t.Fatalf("FromEncodings: %v", err)
	}
	return ext
}

func TestFromEncodingsMatchesSource(t *testing.T) {
	src := FromRows("t.csv", []string{"id", "city", "n"}, [][]string{
		{"1", "Wien", "3"},
		{"2", "Graz", ""},
		{"3", "Wien", "5"},
		{"4", "", "3"},
	})
	ext := extTable(t, src)

	if !ext.Encoded() {
		t.Fatal("fresh FromEncodings table should report Encoded")
	}
	if got, want := ext.NumRows(), src.NumRows(); got != want {
		t.Fatalf("NumRows = %d, want %d", got, want)
	}
	if got, want := ext.NumCols(), src.NumCols(); got != want {
		t.Fatalf("NumCols = %d, want %d", got, want)
	}

	// Encoded-path reads must not materialize the cells.
	for c := range src.Cols {
		se, ee := src.Profile(c), ext.Profile(c)
		if se.Type != ee.Type || se.Nulls != ee.Nulls || se.Distinct != ee.Distinct || se.NumRows != ee.NumRows {
			t.Fatalf("col %d profile mismatch: %+v vs %+v", c, se, ee)
		}
		if !reflect.DeepEqual(se.ValueHashes(), ee.ValueHashes()) {
			t.Fatalf("col %d value hashes differ", c)
		}
		sc, ss := src.CanonCodes(c)
		ec, es := ext.CanonCodes(c)
		if ss != es || !reflect.DeepEqual(sc, ec) {
			t.Fatalf("col %d canon codes differ", c)
		}
	}
	if ext.SchemaKey() != src.SchemaKey() {
		t.Fatalf("SchemaKey = %q, want %q", ext.SchemaKey(), src.SchemaKey())
	}
	if !ext.Encoded() {
		t.Fatal("encoded-path reads materialized the cells")
	}

	// Row-level access materializes once and matches the source cells.
	if !reflect.DeepEqual(ext.Rows(), src.Rows()) {
		t.Fatalf("Rows mismatch after materialization")
	}
	if ext.Encoded() {
		t.Fatal("row access should clear the encoded state")
	}
	if got, want := ext.Value(1, 2), "Wien"; got != want {
		t.Fatalf("Value(1,2) = %q, want %q", got, want)
	}
}

func TestEncodingFromPartsValidation(t *testing.T) {
	if _, err := EncodingFromParts([]string{"a"}, []uint32{0, 1}, []int32{2}, []bool{false}, []uint64{1}, []int32{2}); err == nil {
		t.Fatal("out-of-range code not rejected")
	}
	if _, err := EncodingFromParts([]string{"a", "b"}, []uint32{0}, []int32{1}, []bool{false}, nil, nil); err == nil {
		t.Fatal("dict/count length mismatch not rejected")
	}
	if _, err := FromEncodings("t", []string{"a", "b"}, make([]*Encoding, 1)); err == nil {
		t.Fatal("col/encoding count mismatch not rejected")
	}
}
