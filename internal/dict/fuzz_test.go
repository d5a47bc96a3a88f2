package dict

import (
	"testing"

	"ogdp/internal/gen"
)

// FuzzDictExtract: Extract never panics, names a known format exactly
// when it found entries, and its indexed Lookup agrees with the scan
// over the same entries for every extracted column. Seeds are the
// generator's metadata documents in all their styles.
func FuzzDictExtract(f *testing.F) {
	seen := map[string]bool{}
	for _, prof := range gen.Profiles() {
		corpus := gen.Generate(prof, 0.15, 1)
		for _, ds := range corpus.Datasets {
			// The seed picks an unstructured document's style.
			for seed := int64(1); seed <= 4; seed++ {
				if doc, ok := gen.MetadataDoc(corpus, ds.ID, seed); ok && !seen[doc] {
					seen[doc] = true
					f.Add(doc)
				}
			}
		}
	}
	f.Add("column,description\nid,Unique identifier\nID,duplicate\n")
	f.Fuzz(func(t *testing.T, doc string) {
		d := Extract(doc)
		switch d.Format {
		case "", "html", "csv", "bullets", "lines":
		default:
			t.Fatalf("Format = %q", d.Format)
		}
		if (d.Format == "") != (len(d.Entries) == 0) {
			t.Fatalf("Format = %q with %d entries", d.Format, len(d.Entries))
		}
		scan := &Dictionary{Entries: d.Entries}
		for _, e := range d.Entries {
			got, gotOK := d.Lookup(e.Column)
			want, wantOK := scan.Lookup(e.Column)
			if got != want || gotOK != wantOK {
				t.Fatalf("Lookup(%q): indexed %q, %v; scan %q, %v", e.Column, got, gotOK, want, wantOK)
			}
		}
	})
}
