package diskcorpus

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ogdp/internal/colstore"
	"ogdp/internal/gen"
	"ogdp/internal/table"
)

// genDir saves a small generated corpus (CSVs + colstore sidecars +
// manifests) into a temp dir.
func genDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	c := gen.Generate(gen.CA(), 0.03, 5)
	if _, err := gen.SaveCorpus(dir, c); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestLoadIgnoresSidecar pins that the generic loader never reads a
// colstore file: even one stamped with the CSV's own content hash is
// passed over, without a ledger entry, for the cleaning parse.
func TestLoadIgnoresSidecar(t *testing.T) {
	dir := t.TempDir()
	body := "id,name\n1,a\n2,b\n"
	write(t, dir, "good.csv", body)
	src := table.FromRows("good.csv", []string{"id", "name"}, [][]string{{"1", "a"}})
	if _, err := colstore.WriteFile(filepath.Join(dir, "good.csv"+colstore.Ext), src, colstore.HashBytes([]byte(body))); err != nil {
		t.Fatal(err)
	}

	c, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Tables) != 1 || len(c.Skips) != 0 {
		t.Fatalf("tables=%d skips=%v", len(c.Tables), c.Skips)
	}
	if c.Tables[0].Encoded() || c.Tables[0].NumRows() != 2 {
		t.Fatalf("got %d rows (encoded %v), want the 2-row CSV parse",
			c.Tables[0].NumRows(), c.Tables[0].Encoded())
	}
}

func TestLoadStudyNotesGenCorpus(t *testing.T) {
	dir := genDir(t)
	src, skips, err := LoadStudyNotes(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(skips) != 0 {
		t.Fatalf("clean corpus produced load notes: %v", skips)
	}
	gc, ok := src.(*gen.Corpus)
	if !ok {
		t.Fatalf("LoadStudyNotes returned %T, want *gen.Corpus", src)
	}
	for _, m := range gc.Metas {
		if !m.Table.Encoded() {
			t.Fatalf("%s not served from its colstore file", m.Table.Name)
		}
	}
}

// firstColstore returns the path of the first colstore file in dir.
func firstColstore(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), colstore.Ext) {
			return filepath.Join(dir, e.Name())
		}
	}
	t.Fatal("no colstore files written")
	return ""
}

// assertFallback loads dir and checks that exactly the table behind
// the colstore file at path fell back to its CSV, with one note whose
// reason contains want.
func assertFallback(t *testing.T, dir, path, want string) {
	t.Helper()
	victim := strings.TrimSuffix(filepath.Base(path), colstore.Ext)
	src, skips, err := LoadStudyNotes(dir)
	if err != nil {
		t.Fatalf("unusable colstore must fall back, not fail: %v", err)
	}
	if len(skips) != 1 || skips[0].Name != victim || !strings.Contains(skips[0].Reason, want) {
		t.Fatalf("skips = %v, want one %q note for %s", skips, want, victim)
	}
	gc := src.(*gen.Corpus)
	for _, m := range gc.Metas {
		if m.Table.Encoded() != (m.Table.Name != victim) {
			t.Fatalf("%s: encoded %v; only %s should have been re-parsed from CSV",
				m.Table.Name, m.Table.Encoded(), victim)
		}
	}
}

func TestLoadStudyNotesCorruptColstoreFallsBack(t *testing.T) {
	dir := genDir(t)
	path := firstColstore(t, dir)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	assertFallback(t, dir, path, "checksum mismatch")
}

func TestLoadStudyNotesTruncatedColstoreFallsBack(t *testing.T) {
	dir := genDir(t)
	path := firstColstore(t, dir)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	assertFallback(t, dir, path, "truncated")
}

// TestLoadStudyNotesStaleColstoreFallsBack replaces one colstore file
// with an intact one stamped with another content hash, as a file left
// over from an older version of the table would be. It must be passed
// over for the CSV the provenance describes.
func TestLoadStudyNotesStaleColstoreFallsBack(t *testing.T) {
	dir := genDir(t)
	path := firstColstore(t, dir)
	old := table.FromRows("old.csv", []string{"x"}, [][]string{{"1"}})
	if _, err := colstore.WriteFile(path, old, colstore.HashBytes([]byte("x\n1\n"))); err != nil {
		t.Fatal(err)
	}
	assertFallback(t, dir, path, "colstore stale")
}

func TestLoadStudyRejectsMissingTable(t *testing.T) {
	dir := genDir(t)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var victim string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".csv") {
			victim = e.Name()
			break
		}
	}
	// Remove both representations: the manifests now reference data the
	// corpus no longer has.
	if err := os.Remove(filepath.Join(dir, victim)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, victim+colstore.Ext)); err != nil {
		t.Fatal(err)
	}
	_, _, err = LoadStudyNotes(dir)
	if err == nil {
		t.Fatal("corpus with missing table data should be rejected")
	}
	if !strings.Contains(err.Error(), victim) {
		t.Fatalf("error %q does not name the missing table %s", err, victim)
	}
}
