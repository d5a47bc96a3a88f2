package cli

import (
	"bytes"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ogdp/internal/colstore"
	"ogdp/internal/gen"
)

// TestLoadCorpusLogsColstoreFallback corrupts one colstore file of a
// generated corpus and checks that the load logs a line naming its
// table and the reason.
func TestLoadCorpusLogsColstoreFallback(t *testing.T) {
	dir := t.TempDir()
	if _, err := gen.SaveCorpus(dir, gen.Generate(gen.CA(), 0.03, 5)); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*"+colstore.Ext))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no colstore files written (%v)", err)
	}
	path := matches[0]
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := LoadCorpus(dir, log.New(&buf, "", 0)); err != nil {
		t.Fatal(err)
	}
	victim := strings.TrimSuffix(filepath.Base(path), colstore.Ext)
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "skipped "+victim+": ") && strings.Contains(line, "checksum mismatch") {
			return
		}
	}
	t.Fatalf("no checksum-mismatch line for %s in the load log:\n%s", victim, buf.String())
}
