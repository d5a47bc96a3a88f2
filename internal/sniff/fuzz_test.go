package sniff_test

import (
	"bytes"
	"strings"
	"testing"

	"ogdp/internal/ckan"
	"ogdp/internal/gen"
	"ogdp/internal/sniff"
)

// oracleDetect is Detect as it was when it lowercased the whole
// sniffed window before matching the HTML and XML prefixes and handed
// the whole window to sniffDelimited; Detect now lowercases only a
// short leading prefix, converts only the lines sniffDelimited reads,
// and must agree with it.
func oracleDetect(data []byte) sniff.Format {
	if len(data) == 0 {
		return sniff.FormatEmpty
	}
	if len(data) > sniff.SniffLimit {
		data = data[:sniff.SniffLimit]
	}

	switch {
	case bytes.HasPrefix(data, []byte("%PDF")):
		return sniff.FormatPDF
	case bytes.HasPrefix(data, []byte{0x1f, 0x8b}):
		return sniff.FormatGZIP
	case bytes.HasPrefix(data, []byte("PK\x03\x04")):
		if sniff.LooksLikeXLSX(data) {
			return sniff.FormatXLSX
		}
		return sniff.FormatZIP
	}

	trimmed := bytes.TrimLeft(data, " \t\r\n\uFEFF")
	if len(trimmed) == 0 {
		return sniff.FormatEmpty
	}
	lower := bytes.ToLower(trimmed)
	switch {
	case bytes.HasPrefix(lower, []byte("<!doctype html")),
		bytes.HasPrefix(lower, []byte("<html")),
		bytes.HasPrefix(lower, []byte("<head")),
		bytes.HasPrefix(lower, []byte("<body")):
		return sniff.FormatHTML
	case bytes.HasPrefix(lower, []byte("<?xml")), bytes.HasPrefix(lower, []byte("<rss")):
		return sniff.FormatXML
	}
	if trimmed[0] == '{' || trimmed[0] == '[' {
		if sniff.LooksLikeJSON(trimmed) {
			return sniff.FormatJSON
		}
	}

	if !sniff.LooksLikeText(data) {
		return sniff.FormatBinary
	}
	if f, ok := sniff.SniffDelimited(string(data)); ok {
		return f
	}
	return sniff.FormatUnknown
}

// FuzzSniff checks that Detect never panics, leaves its input alone,
// gives the same answer for the same bytes, and agrees with
// oracleDetect. Seeds cover every format the tests name, markup behind
// multi-byte runes that lowercase to fewer bytes, a window whose lines
// change at the line limit, and the bodies of a generated portal,
// broken resources included.
func FuzzSniff(f *testing.F) {
	for _, s := range []string{
		"%PDF-1.7 blah",
		"PK\x03\x04somezipdata",
		"PK\x03\x04...[Content_Types].xml...",
		"\x1f\x8b\x08\x00\x00\x00\x00\x00",
		"   \n\t  ",
		"<!DOCTYPE html><html><body>404</body></html>",
		`<?xml version="1.0"?><root/>`,
		`[{"a": 1}, {"a": 2}]`,
		"id,desc\n1,\"hello, world\"\n2,\"a,b,c\"\n",
		"id\tname\n1\talpha\n2\tbeta\n",
		"name\nalpha\nbeta\ngamma\n",
		"",
		"\u212A<HTML><BODY>x</BODY></HTML>",
		strings.Repeat("\u212A", 20) + "<html>",
		"\uFEFF<!DOCTYPE HTML>",
		"\xff\xfe<?XML version=\"1.0\"?>",
		// Lines at the edge of the 19 that sniffDelimited reads: the
		// 20th and 21st disagree on the delimiter count, and in the
		// second window the 19th line tips it from CSV to unknown.
		strings.Repeat("a,b\n", 19) + "a,b,c,d\n" + "a\tb\n",
		strings.Repeat("a,b\n", 15) + strings.Repeat("x\n", 4) + "a,b\n",
	} {
		f.Add([]byte(s))
	}
	for _, kind := range []ckan.BrokenKind{ckan.BrokenHTMLPage, ckan.BrokenGarbage} {
		_, _, body := (&ckan.Resource{Broken: kind}).Download()
		f.Add(body)
	}
	p := gen.BuildPortal(gen.Generate(gen.UK(), 0.02, 1), 1)
	for _, d := range p.Datasets[:min(len(p.Datasets), 4)] {
		for _, r := range d.Resources {
			_, _, body := r.Download()
			f.Add(body)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := bytes.Clone(data)
		first := sniff.Detect(data)
		if !bytes.Equal(data, orig) {
			t.Fatal("Detect modified its input")
		}
		if again := sniff.Detect(orig); again != first {
			t.Fatalf("Detect gave %v, then %v", first, again)
		}
		if want := oracleDetect(orig); first != want {
			t.Fatalf("Detect gave %v, oracle %v", first, want)
		}
	})
}
