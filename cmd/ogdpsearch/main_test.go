package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ogdp/internal/colstore"
	"ogdp/internal/diskcorpus"
	"ogdp/internal/gen"
	"ogdp/internal/query"
)

// TestSearchMatchesService runs the built ogdpsearch binary over a
// generated corpus whose colstore files were deleted, so every table
// loads from its CSV. Each mode's stdout, minus the timing trailer,
// must equal what query.Service answers over diskcorpus.LoadStudy of
// the same directory: the CLI loads the way ogdpserve does.
func TestSearchMatchesService(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a binary")
	}
	bin := filepath.Join(t.TempDir(), "ogdpsearch")
	if out, err := exec.Command("go", "build", "-o", bin, "ogdp/cmd/ogdpsearch").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dir := t.TempDir()
	if _, err := gen.SaveCorpus(dir, gen.Generate(gen.CA(), 0.1, 1)); err != nil {
		t.Fatal(err)
	}
	cols, err := filepath.Glob(filepath.Join(dir, "*"+colstore.Ext))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range cols {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	src, err := diskcorpus.LoadStudy(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := query.New(src, query.Options{})
	do := func(req query.Request) string {
		t.Helper()
		out, err := svc.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		return out
	}

	// This table ends in an all-null column: the provenance loader
	// keeps it (10 columns), the cleaning parse would drop it (9).
	const tbl = "police-calls-records2-76.csv"
	profile := do(query.Request{Kind: query.KindProfile, Table: tbl})
	if !strings.Contains(profile, "× 10 columns") {
		t.Fatalf("service profile does not have 10 columns:\n%s", profile)
	}
	for _, tc := range []struct {
		mode string
		want string
	}{
		{"profile", profile},
		{"fd", do(query.Request{Kind: query.KindFD, Table: tbl})},
		{"rank", do(query.Request{Kind: query.KindRank, Table: tbl, K: 3})},
		{"search", do(query.Request{Kind: query.KindJoin, Table: tbl, K: 3}) + "\n" +
			do(query.Request{Kind: query.KindUnion, Table: tbl, K: 3})},
	} {
		out, err := exec.Command(bin, "-dir", dir, "-query", tbl, "-mode", tc.mode, "-k", "3").Output()
		if err != nil {
			t.Fatalf("-mode %s: %v", tc.mode, err)
		}
		got, _, _ := strings.Cut(string(out), "\ncompleted in ")
		if got != tc.want {
			t.Errorf("-mode %s differs from query.Service:\n got %q\nwant %q", tc.mode, got, tc.want)
		}
	}
}
