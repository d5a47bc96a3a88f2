package ogdp

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestDocsNameExistingCommands fails when a current document names a
// command that has no directory under cmd/: every "ogdpX" word, bare
// or as cmd/ogdpX or ./cmd/ogdpX, must be a cmd/ogdpX directory.
// CHANGES.md, ROADMAP.md and perfbench/ are history and are not
// checked.
func TestDocsNameExistingCommands(t *testing.T) {
	name := regexp.MustCompile(`\bogdp[a-z]+`)
	for _, doc := range []string{
		"README.md",
		"ARCHITECTURE.md",
		"DESIGN.md",
		"EXPERIMENTS.md",
		filepath.Join(".claude", "skills", "verify", "SKILL.md"),
	} {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, cmd := range name.FindAllString(string(body), -1) {
			if seen[cmd] {
				continue
			}
			seen[cmd] = true
			if st, err := os.Stat(filepath.Join("cmd", cmd)); err != nil || !st.IsDir() {
				t.Errorf("%s names %s, but cmd/%s does not exist", doc, cmd, cmd)
			}
		}
	}
}
