package sniff_test

import (
	"bytes"
	"testing"

	"ogdp/internal/ckan"
	"ogdp/internal/gen"
	"ogdp/internal/sniff"
)

// FuzzSniff checks that Detect never panics, leaves its input alone,
// and gives the same answer for the same bytes. Seeds cover every
// format the tests name and the bodies of a generated portal, broken
// resources included.
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
	})
}
