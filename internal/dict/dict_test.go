package dict

import (
	"testing"

	"ogdp/internal/gen"
	"ogdp/internal/table"
)

func TestExtractCSV(t *testing.T) {
	doc := "column,description\nid,Unique identifier\ncity,City name\nprovince,Province the city is in\n"
	d := Extract(doc)
	if d.Format != "csv" || len(d.Entries) != 3 {
		t.Fatalf("extract = %+v", d)
	}
	if desc, ok := d.Lookup("City"); !ok || desc != "City name" {
		t.Errorf("Lookup(City) = %q, %v", desc, ok)
	}
}

func TestExtractHTML(t *testing.T) {
	doc := `<html><body><h1>Dataset</h1><dl>
<dt>id</dt><dd>Unique identifier</dd>
<dt>species</dt><dd>The <b>species</b> recorded</dd>
</dl></body></html>`
	d := Extract(doc)
	if d.Format != "html" || len(d.Entries) != 2 {
		t.Fatalf("extract = %+v", d)
	}
	if desc, _ := d.Lookup("species"); desc != "The species recorded" {
		t.Errorf("tags not stripped: %q", desc)
	}
}

func TestExtractBullets(t *testing.T) {
	doc := "# Title\n\n- id: Unique identifier\n- `amount`: Dollar amount\n* year - Reporting year\n"
	d := Extract(doc)
	if d.Format != "bullets" || len(d.Entries) != 3 {
		t.Fatalf("extract = %+v", d)
	}
	if _, ok := d.Lookup("amount"); !ok {
		t.Error("backticked column not found")
	}
}

func TestExtractLines(t *testing.T) {
	doc := "Budget release notes.\n\nfund_code: Code of the fund\ndept number: Department number\n"
	d := Extract(doc)
	if len(d.Entries) != 2 {
		t.Fatalf("extract = %+v", d)
	}
}

func TestExtractNoise(t *testing.T) {
	doc := "This is just prose without any dictionary structure at all. Nothing here."
	d := Extract(doc)
	if len(d.Entries) != 0 {
		t.Errorf("noise produced entries: %+v", d.Entries)
	}
	if got := Extract(""); len(got.Entries) != 0 {
		t.Error("empty doc produced entries")
	}
}

func TestCoverage(t *testing.T) {
	tb := table.FromRows("t", []string{"id", "city", "province"}, [][]string{{"1", "a", "b"}})
	d := &Dictionary{Entries: []Entry{
		{Column: "ID", Description: "x"},
		{Column: "city", Description: "y"},
	}}
	if got := Coverage(d, tb); got != 2.0/3.0 {
		t.Errorf("coverage = %g", got)
	}
	if Coverage(d, table.New("e", nil, nil)) != 0 {
		t.Error("empty table coverage should be 0")
	}
}

// TestRoundTripWithGenerator verifies the extraction pipeline end to
// end: generate a portal, render each dataset's metadata document in
// its (possibly messy) style, extract, and check the dictionary covers
// the dataset's tables.
func TestRoundTripWithGenerator(t *testing.T) {
	for _, prof := range []gen.PortalProfile{gen.SG(), gen.CA()} {
		corpus := gen.Generate(prof, 0.15, 5)
		documented, covered := 0, 0.0
		for _, ds := range corpus.Datasets {
			doc, ok := gen.MetadataDoc(corpus, ds.ID, 77)
			if !ok {
				continue
			}
			d := Extract(doc)
			if len(d.Entries) == 0 {
				t.Errorf("%s: dataset %s produced a doc but nothing extracted:\n%s", prof.Name, ds.ID, doc[:min(200, len(doc))])
				continue
			}
			for _, m := range corpus.Metas {
				if m.Dataset != ds.ID {
					continue
				}
				documented++
				covered += Coverage(d, m.Table)
			}
		}
		if documented == 0 {
			if prof.Name == "SG" {
				t.Errorf("SG: no documented datasets (all SG metadata is structured)")
			}
			continue
		}
		avg := covered / float64(documented)
		if avg < 0.9 {
			t.Errorf("%s: average dictionary coverage %.2f, want >= 0.9", prof.Name, avg)
		}
	}
}

func TestLookupMiss(t *testing.T) {
	d := &Dictionary{Entries: []Entry{{Column: "a", Description: "x"}}}
	if _, ok := d.Lookup("missing"); ok {
		t.Error("missing column found")
	}
}

// TestLookupIndexMatchesScan pins the indexed Lookup (built by
// Extract) to the literal-construction scan fallback: same
// case-insensitive matching, same first-entry-wins duplicate rule.
func TestLookupIndexMatchesScan(t *testing.T) {
	entries := []Entry{
		{Column: " ID ", Description: "first id"},
		{Column: "id", Description: "duplicate id"},
		{Column: "City", Description: "city name"},
	}
	indexed := &Dictionary{Entries: entries}
	indexed.index()
	scan := &Dictionary{Entries: entries}
	for _, col := range []string{"id", "ID", " id", "city", "CITY", "missing"} {
		di, oki := indexed.Lookup(col)
		ds, oks := scan.Lookup(col)
		if di != ds || oki != oks {
			t.Errorf("Lookup(%q): indexed = %q,%v scan = %q,%v", col, di, oki, ds, oks)
		}
	}
	if desc, _ := indexed.Lookup("id"); desc != "first id" {
		t.Errorf("duplicate rule broken: %q", desc)
	}
}

func BenchmarkLookup(b *testing.B) {
	var entries []Entry
	for i := 0; i < 200; i++ {
		entries = append(entries, Entry{Column: "col_" + string(rune('a'+i%26)) + string(rune('0'+i/26)), Description: "d"})
	}
	d := &Dictionary{Entries: entries}
	d.index()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Lookup(entries[i%len(entries)].Column)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkExtract(b *testing.B) {
	corpus := gen.Generate(gen.CA(), 0.1, 5)
	var docs []string
	for _, ds := range corpus.Datasets {
		if doc, ok := gen.MetadataDoc(corpus, ds.ID, 77); ok {
			docs = append(docs, doc)
		}
	}
	if len(docs) == 0 {
		b.Skip("no docs")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Extract(docs[i%len(docs)])
	}
}
