package colstore

import (
	"reflect"
	"testing"

	"ogdp/internal/table"
)

// fuzzSeeds are Marshal images of small tables: the sample, a table
// with nulls, and the empty and header-only edges.
func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	var out [][]byte
	for _, src := range []*table.Table{
		sampleTable(),
		table.FromRows("nulls.csv", []string{"k", "v"}, [][]string{{"a", ""}, {"b", "NA"}, {"a", "x"}, {"", ""}}),
		table.FromRows("empty.csv", nil, nil),
		table.FromRows("headeronly.csv", []string{"a", "b"}, nil),
	} {
		b, err := Marshal(src, 0xfeedbeef)
		if err != nil {
			f.Fatalf("Marshal %s: %v", src.Name, err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzColstoreDecode feeds arbitrary bytes to the colstore reader. Any
// image must either be rejected with an error or decode to a table
// that survives a Marshal → decode round trip with equal values;
// nothing may panic. With restamp set, both checksums are recomputed
// over the mutated image first, so mutations reach the directory and
// column decoding instead of stopping at a checksum mismatch.
func FuzzColstoreDecode(f *testing.F) {
	seeds := fuzzSeeds(f)
	for _, b := range seeds {
		f.Add(false, b)
		f.Add(true, b)
	}
	// The corruption cases are written against the sample's layout.
	for _, damage := range corruptions {
		f.Add(false, damage(append([]byte(nil), seeds[0]...)))
	}
	f.Fuzz(func(t *testing.T, restampImage bool, b []byte) {
		b = append([]byte(nil), b...)
		if restampImage {
			restamp(b)
		}
		got, hash, err := decode(b)
		if err != nil {
			return
		}
		img, err := Marshal(got, hash)
		if err != nil {
			t.Fatalf("Marshal of a decoded table: %v", err)
		}
		again, hash2, err := decode(img)
		if err != nil {
			t.Fatalf("decode of a re-marshaled table: %v", err)
		}
		if again.Name != got.Name || !reflect.DeepEqual(again.Cols, got.Cols) ||
			again.Ragged != got.Ragged || hash2 != hash {
			t.Fatalf("identity changed: %q %q %+v %#x -> %q %q %+v %#x",
				got.Name, got.Cols, got.Ragged, hash, again.Name, again.Cols, again.Ragged, hash2)
		}
		if !reflect.DeepEqual(again.Rows(), got.Rows()) {
			t.Fatalf("values changed across the round trip")
		}
	})
}
