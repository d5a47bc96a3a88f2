package diskcorpus

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ogdp/internal/csvio"
	"ogdp/internal/gen"
)

func write(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadMixedDirectory(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "good.csv", "id,name\n1,a\n2,b\n")
	write(t, dir, "tsv-in-disguise.csv", "id\tname\n1\talpha\n2\tbeta\n")
	write(t, dir, "broken.csv", "<html><body>404</body></html>")
	write(t, dir, "notes.txt", "not a csv at all")
	wideCols := strings.Repeat("c,", 150) + "c\n" + strings.Repeat("1,", 150) + "1\n"
	write(t, dir, "wide.csv", wideCols)

	c, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Tables) != 2 {
		t.Fatalf("tables = %d, want 2 (got %v)", len(c.Tables), names(c))
	}
	if c.Manifest {
		t.Error("no manifest should be detected")
	}
	if c.ByName("good.csv") < 0 || c.ByName("zzz.csv") != -1 {
		t.Error("ByName lookup wrong")
	}
	// TSV content parsed with tab delimiter.
	i := c.ByName("tsv-in-disguise.csv")
	if c.Tables[i].NumCols() != 2 {
		t.Errorf("tsv columns = %d", c.Tables[i].NumCols())
	}
	// The skip ledger names every passed-over file with a reason, in
	// file-name order (notes.txt is filtered by extension, not skipped):
	// one parse failure and one wide-table rejection.
	if len(c.Skips) != 2 {
		t.Fatalf("skip ledger = %v, want 2 entries", c.Skips)
	}
	if c.Skips[0].Name != "broken.csv" || !strings.Contains(c.Skips[0].Reason, "undetected format") ||
		!strings.Contains(c.Skips[0].Reason, "html") {
		t.Errorf("broken.csv skip = %+v, want undetected-format reason naming html", c.Skips[0])
	}
	if c.Skips[1].Name != "wide.csv" || !strings.Contains(c.Skips[1].Reason, "too wide") {
		t.Errorf("wide.csv skip = %+v, want wide-table reason", c.Skips[1])
	}
}

func TestSkipLedgerReasons(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "empty.csv", "")
	write(t, dir, "good.csv", "id,name\n1,a\n")
	c, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Tables) != 1 || len(c.Skips) != 1 {
		t.Fatalf("tables=%d skips=%v", len(c.Tables), c.Skips)
	}
	if c.Skips[0].Name != "empty.csv" || !strings.Contains(c.Skips[0].Reason, "empty") {
		t.Errorf("empty.csv skip = %+v", c.Skips[0])
	}
	if got := c.Skips[0].String(); !strings.HasPrefix(got, "empty.csv: ") {
		t.Errorf("Skip.String() = %q", got)
	}
}

func TestMalformedManifestInLedger(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "a.csv", "id,name\n1,a\n2,b\n")
	write(t, dir, "datasets.json", `{"this is": "not a manifest array"`)
	c, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Manifest {
		t.Error("malformed manifest must not count as detected")
	}
	found := false
	for _, s := range c.Skips {
		if s.Name == "datasets.json" && strings.Contains(s.Reason, "malformed manifest") {
			found = true
		}
	}
	if !found {
		t.Errorf("malformed datasets.json missing from ledger: %v", c.Skips)
	}
	// The tables themselves still load, attribution-free.
	if len(c.Tables) != 1 || c.Tables[0].DatasetID != "" {
		t.Errorf("tables = %d, dataset = %q", len(c.Tables), c.Tables[0].DatasetID)
	}
}

func TestLoadWithManifest(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "a.csv", "id\n1\n2\n")
	write(t, dir, "b.csv", "id\n3\n4\n")
	write(t, dir, "datasets.json", `[{"id": "ds-1", "tables": ["a.csv", "b.csv"]}]`)
	c, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Manifest {
		t.Fatal("manifest not detected")
	}
	for _, tb := range c.Tables {
		if tb.DatasetID != "ds-1" {
			t.Errorf("%s dataset = %q", tb.Name, tb.DatasetID)
		}
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load("/nonexistent-dir-xyz"); err == nil {
		t.Error("missing directory should error")
	}
}

func TestLoadDeterministicOrder(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "b.csv", "x,y\n1,2\n")
	write(t, dir, "a.csv", "x,y\n1,2\n")
	write(t, dir, "c.csv", "x,y\n1,2\n")
	c, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(c); got != "a.csv,b.csv,c.csv" {
		t.Errorf("order = %s", got)
	}
}

// TestRoundTripWithGenerator writes a generated corpus to disk through
// csvio and loads it back.
func TestRoundTripWithGenerator(t *testing.T) {
	dir := t.TempDir()
	corpus := gen.Generate(gen.SG(), 0.1, 9)
	for _, m := range corpus.Metas {
		f, err := os.Create(filepath.Join(dir, m.Table.Name))
		if err != nil {
			t.Fatal(err)
		}
		if err := csvio.Write(f, m.Table); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	c, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Tables) != len(corpus.Metas) {
		t.Fatalf("loaded %d of %d tables (skips %v)", len(c.Tables), len(corpus.Metas), c.Skips)
	}
	for _, tb := range c.Tables {
		i := -1
		for j, m := range corpus.Metas {
			if m.Table.Name == tb.Name {
				i = j
				break
			}
		}
		if i < 0 {
			t.Fatalf("unknown table %s", tb.Name)
		}
		orig := corpus.Metas[i].Table
		if tb.NumRows() != orig.NumRows() || tb.NumCols() != orig.NumCols() {
			t.Errorf("%s shape %dx%d -> %dx%d", tb.Name, orig.NumCols(), orig.NumRows(), tb.NumCols(), tb.NumRows())
		}
	}
}

// TestParseDoesNotCopyBody pins the no-copy contract of parse: the
// file body is wrapped in a bytes.Reader, not duplicated through
// strings.NewReader(string(body)). The fixture uses few, large cells
// so the parser's own per-cell allocations stay near 1× the body
// (measured 1.06×); the old copy added exactly +1× more, so the 1.6×
// bound cleanly separates the two while tolerating parser overhead
// drift.
func TestParseDoesNotCopyBody(t *testing.T) {
	cell := strings.Repeat("x", 4<<10)
	body := []byte("a,b\n" + strings.Repeat(cell+","+cell+"\n", 512))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tb, reason := parse("big.csv", body)
	runtime.ReadMemStats(&after)
	if tb == nil {
		t.Fatalf("parse failed: %s", reason)
	}
	if tb.NumRows() != 512 || tb.NumCols() != 2 {
		t.Fatalf("parsed shape %dx%d", tb.NumCols(), tb.NumRows())
	}
	delta := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(float64(len(body)) * 1.6); delta > limit {
		t.Errorf("parse allocated %d bytes for a %d-byte body (%.2fx, limit 1.6x): body is being copied",
			delta, len(body), float64(delta)/float64(len(body)))
	}
}

func names(c *Corpus) string {
	var out []string
	for _, t := range c.Tables {
		out = append(out, t.Name)
	}
	return strings.Join(out, ",")
}
