package csvio_test

import (
	"testing"

	"ogdp/internal/ckan"
	"ogdp/internal/csvio"
	"ogdp/internal/gen"
	"ogdp/internal/values"
)

// portalBodies returns download bodies a generated portal serves: the
// HTML page and the binary garbage of its broken resources, its wide
// tables past the column cutoff, and a few readable tables.
func portalBodies() [][]byte {
	out := [][]byte{}
	for _, kind := range []ckan.BrokenKind{ckan.BrokenHTMLPage, ckan.BrokenGarbage} {
		_, _, body := (&ckan.Resource{Broken: kind}).Download()
		out = append(out, body)
	}
	wide, readable := 0, 0
	p := gen.BuildPortal(gen.Generate(gen.UK(), 0.05, 1), 1)
	for _, d := range p.Datasets {
		for _, r := range d.Resources {
			if r.Broken != ckan.BrokenNone {
				continue
			}
			_, _, body := r.Download()
			if _, err := csvio.ReadBytes(r.Name, body); err != nil && wide < 2 {
				wide++
				out = append(out, body)
			} else if err == nil && readable < 3 {
				readable++
				out = append(out, body)
			}
		}
	}
	return out
}

// FuzzReadCSV feeds arbitrary bytes through the parse pipeline. A
// document may fail to parse, but never panic; one that parses is a
// rectangular table, narrower than the wide-table cutoff, whose last
// column holds a non-null value whenever it has rows.
func FuzzReadCSV(f *testing.F) {
	for _, s := range []string{
		"id,name,province\n1,Waterloo,ON\n2,Toronto,ON\n",
		"Annual Report,,\n,,\nid,name,province\n1,Waterloo,ON\n2,Toronto,ON\n",
		"id,n/a,province\nid,name,province\n1,Waterloo,ON\n",
		"a,,c\n1,,3\n",
		"id,name,x,y\n1,a,,\n2,b,,\n3,c,,n/a\n",
		"a,b,c\n1,2\n1,2,3,4\n1,2,3\n",
		"id,desc\n1,\"hello, world\"\n2,\"line\nbreak\"\n",
		"id , name \n1,a\n",
		"x\n",
		"",
	} {
		f.Add([]byte(s))
	}
	for _, body := range portalBodies() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tb, err := csvio.ReadBytes("fuzz.csv", data)
		if err != nil {
			return
		}
		nCols, nRows := tb.NumCols(), tb.NumRows()
		if nCols == 0 || nCols >= csvio.DefaultMaxColumns {
			t.Fatalf("parsed a table of %d columns", nCols)
		}
		if len(tb.Cols) != nCols {
			t.Fatalf("%d names, NumCols %d", len(tb.Cols), nCols)
		}
		for c := range nCols {
			if col := tb.Column(c); len(col) != nRows {
				t.Fatalf("column %d has %d cells, want %d", c, len(col), nRows)
			}
		}
		if nRows == 0 {
			return // a header-only table keeps its columns
		}
		for _, v := range tb.Column(nCols - 1) {
			if !values.IsNull(v) {
				return
			}
		}
		t.Fatalf("last column %q is entirely null", tb.Cols[nCols-1])
	})
}
