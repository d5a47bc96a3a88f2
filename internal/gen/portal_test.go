package gen

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ogdp/internal/ckan"
	"ogdp/internal/csvio"
	"ogdp/internal/sniff"
	"ogdp/internal/table"
)

func TestBuildPortalStructure(t *testing.T) {
	corpus := Generate(CA(), 0.1, 13)
	portal := BuildPortal(corpus, 13)

	if portal.Name != "CA" {
		t.Errorf("portal name = %q", portal.Name)
	}
	if len(portal.Datasets) != len(corpus.Datasets) {
		t.Fatalf("datasets = %d, want %d", len(portal.Datasets), len(corpus.Datasets))
	}

	var good, broken, wide int
	spellings := map[string]bool{}
	for _, d := range portal.Datasets {
		for _, r := range d.Resources {
			if !ckan.IsCSVFormat(r.Format) {
				t.Errorf("unexpected format %q", r.Format)
			}
			spellings[r.Format] = true
			switch r.Broken {
			case ckan.BrokenNone:
				_, _, body := r.Download()
				if len(body) == 0 {
					t.Errorf("resource %s has no body", r.ID)
				}
				if tb, err := csvio.ReadBytes(r.Name, body); err == nil && tb.NumCols() >= 100 {
					t.Errorf("unexpectedly parsed a wide table: %d cols", tb.NumCols())
				} else if err != nil {
					wide++ // wide filler bodies fail the cutoff
				} else {
					good++
				}
			default:
				broken++
			}
		}
	}
	if good != len(corpus.Metas) {
		t.Errorf("readable resources = %d, want %d", good, len(corpus.Metas))
	}
	// CA drops ~59% at download: broken resources must be substantial.
	if broken == 0 {
		t.Error("CA portal should contain broken resources")
	}
	if wide == 0 {
		t.Error("CA portal should contain wide filler tables")
	}
	// Real CKAN metadata spells the format inconsistently; the portal
	// must exercise the client's case-insensitive matching.
	if len(spellings) < 2 {
		t.Errorf("formats = %v, want mixed-case CSV spellings", spellings)
	}
}

func TestBuildPortalWideBodiesAreCSVLooking(t *testing.T) {
	corpus := Generate(UK(), 0.06, 5)
	portal := BuildPortal(corpus, 5)
	foundWide := false
	for _, d := range portal.Datasets {
		for _, r := range d.Resources {
			if r.Broken != ckan.BrokenNone {
				continue
			}
			_, _, body := r.Download()
			if _, err := csvio.ReadBytes(r.Name, body); err != nil {
				foundWide = true
				// Wide bodies must still sniff as CSV (downloadable but
				// rejected at the cutoff, like the paper's 100+-column
				// publications).
				if f := sniff.Detect(body); !f.IsTabular() {
					t.Errorf("wide body sniffs as %v", f)
				}
			}
		}
	}
	if !foundWide {
		t.Skip("no wide resources at this scale/seed")
	}
}

func TestMetadataDocDeterministic(t *testing.T) {
	corpus := Generate(CA(), 0.1, 13)
	for _, ds := range corpus.Datasets {
		a, okA := MetadataDoc(corpus, ds.ID, 3)
		b, okB := MetadataDoc(corpus, ds.ID, 3)
		if okA != okB || a != b {
			t.Fatalf("MetadataDoc not deterministic for %s", ds.ID)
		}
	}
}

func TestMetadataDocStyles(t *testing.T) {
	corpus := Generate(SG(), 0.2, 13)
	// SG: every dataset has structured (CSV) metadata.
	for _, ds := range corpus.Datasets {
		doc, ok := MetadataDoc(corpus, ds.ID, 3)
		if !ok {
			t.Fatalf("SG dataset %s lacks metadata", ds.ID)
		}
		if !strings.HasPrefix(doc, "column,description\n") {
			t.Fatalf("SG metadata not structured CSV:\n%s", doc[:60])
		}
	}
	if _, ok := MetadataDoc(corpus, "no-such-dataset", 3); ok {
		t.Error("unknown dataset should return ok=false")
	}
}

func TestMetadataDocColumnCoverage(t *testing.T) {
	corpus := Generate(SG(), 0.15, 13)
	for _, m := range corpus.Metas {
		doc, ok := MetadataDoc(corpus, m.Dataset, 3)
		if !ok {
			continue
		}
		for _, col := range m.Table.Cols {
			if !strings.Contains(doc, col) {
				t.Errorf("dataset %s metadata misses column %q", m.Dataset, col)
			}
		}
	}
}

func TestStyleAndRoleStrings(t *testing.T) {
	for s := StyleDenormalized; s <= StyleDuplicate; s++ {
		if s.String() == "invalid" {
			t.Errorf("TableStyle(%d) unnamed", s)
		}
	}
	for r := RoleSequentialID; r <= RoleLevel; r++ {
		if r.String() == "invalid" {
			t.Errorf("ColumnRole(%d) unnamed", r)
		}
	}
	if TableStyle(99).String() != "invalid" || ColumnRole(99).String() != "invalid" {
		t.Error("out-of-range names")
	}
}

// TestPortalStreamsEveryTableAsItsCSV: the server writes each
// table-backed resource straight into the response, and the bytes a
// client reads are exactly csvio.Bytes of the table, of the length the
// generator recorded as RawSize. Broken and wide resources serve their
// Body unchanged.
func TestPortalStreamsEveryTableAsItsCSV(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		c := Generate(UK(), 0.05, seed)
		metaOf := make(map[*table.Table]*TableMeta, len(c.Metas))
		for _, m := range c.Metas {
			metaOf[m.Table] = m
		}
		p := BuildPortal(c, seed)
		srv := httptest.NewServer(ckan.NewServer(p))
		tables := 0
		for _, d := range p.Datasets {
			for _, r := range d.Resources {
				resp, err := http.Get(srv.URL + r.URL)
				if err != nil {
					t.Fatal(err)
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatalf("seed %d: %s: %v", seed, r.ID, err)
				}
				if r.Table == nil {
					if _, _, want := r.Download(); !bytes.Equal(got, want) {
						t.Errorf("seed %d: %s: served %d bytes, Download has %d", seed, r.ID, len(got), len(want))
					}
					continue
				}
				tables++
				m := metaOf[r.Table]
				if want := csvio.Bytes(r.Table); !bytes.Equal(got, want) {
					t.Errorf("seed %d: %s: streamed body differs from csvio.Bytes (%d vs %d bytes)", seed, r.ID, len(got), len(want))
				}
				if m == nil || m.RawSize != int64(len(got)) || r.Size != m.RawSize || resp.ContentLength != m.RawSize {
					t.Errorf("seed %d: %s: body %d bytes, Content-Length %d, Size %d, meta %v", seed, r.ID, len(got), resp.ContentLength, r.Size, m)
				}
			}
		}
		srv.Close()
		if tables != len(c.Metas) {
			t.Errorf("seed %d: %d table-backed resources, %d tables", seed, tables, len(c.Metas))
		}
	}
}
