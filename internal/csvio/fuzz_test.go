package csvio_test

import (
	"bytes"
	"encoding/csv"
	"errors"
	"reflect"
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

// shapeOptions are the option sets under which ReadWith and ReadShape
// must agree with the oracle: the defaults, and head and row limits
// small enough that documents of a few lines cross them, each with and
// without cleaning step 4.
var shapeOptions = func() []csvio.Options {
	var out []csvio.Options
	for _, o := range []csvio.Options{{}, {HeaderScanRows: 2, MaxRows: 3}, {HeaderScanRows: 1, MaxRows: 1}} {
		out = append(out, o)
		o.KeepEmptyTrailingColumns = true
		out = append(out, o)
	}
	return out
}()

// errClasses are the failures a caller tells apart with errors.Is.
var errClasses = []error{csvio.ErrEmpty, csvio.ErrNoHeader, csvio.ErrTooWide, csv.ErrQuote, csv.ErrBareQuote, csv.ErrFieldCount}

// sameClass reports whether a and b fail alike: both nil, or both
// non-nil and matching the same errClasses.
func sameClass(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	for _, c := range errClasses {
		if errors.Is(a, c) != errors.Is(b, c) {
			return false
		}
	}
	return true
}

// FuzzReadCSV feeds arbitrary bytes through the parse pipeline. A
// document may fail to parse, but never panic; one that parses is a
// rectangular table, narrower than the wide-table cutoff, whose last
// column holds a non-null value whenever it has rows. Under every
// shapeOptions set, ReadWith and ReadShape fail exactly when
// OracleReadWith, the pre-streaming parser, does, with the same error
// class; otherwise ReadWith builds the oracle's table (names, cells,
// ragged counts) and ReadShape reports its shape.
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
		for _, o := range shapeOptions {
			want, wantErr := csvio.OracleReadWith("fuzz.csv", bytes.NewReader(data), o)
			tb, err := csvio.ReadWith("fuzz.csv", bytes.NewReader(data), o)
			sh, shErr := csvio.ReadShape("fuzz.csv", bytes.NewReader(data), o)
			if !sameClass(err, wantErr) || !sameClass(shErr, wantErr) {
				t.Fatalf("%+v: ReadWith error %v, ReadShape error %v, oracle %v", o, err, shErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if !reflect.DeepEqual(tb.Cols, want.Cols) || !reflect.DeepEqual(tb.Rows(), want.Rows()) || tb.Ragged != want.Ragged {
				t.Fatalf("%+v: ReadWith %q %q %+v, oracle %q %q %+v", o, tb.Cols, tb.Rows(), tb.Ragged, want.Cols, want.Rows(), want.Ragged)
			}
			if sh.Cols != want.NumCols() || sh.Rows != want.NumRows() {
				t.Fatalf("%+v: ReadShape %+v, oracle %d×%d", o, sh, want.NumCols(), want.NumRows())
			}
		}
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
