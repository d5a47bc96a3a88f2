package eval

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ogdp/internal/gen"
	"ogdp/internal/search"
)

var update = flag.Bool("update", false, "rewrite the golden file")

// TestGoldenMetrics pins the oracle metrics on a seeded corpus: the
// generator, the oracle, and the engine are all deterministic, so the
// full evaluation result must reproduce byte-for-byte. Run with
// -update after an intentional scoring change.
func TestGoldenMetrics(t *testing.T) {
	c := gen.Generate(gen.SG(), 0.05, 1)
	grades := Grades(c)
	res := Evaluate(c, grades, search.Options{MinUnique: search.MinUniqueDefault}, DefaultK, 0)

	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "sg-0.05-seed1.golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("metrics drifted from golden file:\n got %s\nwant %s", got, want)
	}
}

// TestEvaluateWorkerInvariance pins that the eval fan-out is
// deterministic: identical Result for 1 and 8 workers.
func TestEvaluateWorkerInvariance(t *testing.T) {
	c := gen.Generate(gen.SG(), 0.05, 1)
	grades := Grades(c)
	opts := search.Options{MinUnique: search.MinUniqueDefault}
	r1 := Evaluate(c, grades, opts, DefaultK, 1)
	r8 := Evaluate(c, grades, opts, DefaultK, 8)
	if !reflect.DeepEqual(r1, r8) {
		t.Errorf("eval differs across worker counts:\n1: %+v\n8: %+v", r1, r8)
	}
}

// TestLSHPathQualityAndWork pins the tradeoff the ISSUE names: at the
// recall-safe banding the LSH path matches the exact path's quality
// metrics on a study corpus while verifying strictly fewer candidates.
func TestLSHPathQualityAndWork(t *testing.T) {
	c := gen.Generate(gen.SG(), 0.05, 1)
	grades := Grades(c)
	exact := Evaluate(c, grades, search.Options{
		MinUnique: search.MinUniqueDefault, ExactCutoff: math.MaxInt}, DefaultK, 0)
	lsh := Evaluate(c, grades, search.Options{
		MinUnique: search.MinUniqueDefault, ExactCutoff: 1}, DefaultK, 0)
	if exact.Path != "exact" || lsh.Path != "lsh" {
		t.Fatalf("paths = %s/%s", exact.Path, lsh.Path)
	}
	if lsh.NDCG < exact.NDCG {
		t.Errorf("LSH NDCG %.4f below exact %.4f at the recall-safe banding", lsh.NDCG, exact.NDCG)
	}
	if lsh.Verified >= exact.Verified {
		t.Errorf("LSH verified %d >= exact %d", lsh.Verified, exact.Verified)
	}
}

func TestGradesShape(t *testing.T) {
	c := gen.Generate(gen.SG(), 0.05, 1)
	g := Grades(c)
	if len(g) != len(c.Metas) {
		t.Fatalf("grades rows = %d, tables = %d", len(g), len(c.Metas))
	}
	anyRelevant := false
	for q := range g {
		if g[q][q] != 0 {
			t.Errorf("diagonal grade [%d][%d] = %d", q, q, g[q][q])
		}
		for _, v := range g[q] {
			if v < 0 || v > 2 {
				t.Fatalf("grade out of range: %d", v)
			}
			if v > 0 {
				anyRelevant = true
			}
		}
	}
	if !anyRelevant {
		t.Error("oracle graded no pair relevant on a generated corpus")
	}
}

// ndcgFloor is the quality floor of the ranked search: NDCG@DefaultK
// on every study portal, for the exact candidate path and for the
// recall-safe 64×2 banding the /search endpoint runs by default.
const ndcgFloor = 0.9

// TestNDCGFloor grades the ranked engine against the generator's
// planted ground truth on all four study portals (scale 0.1, seed 1)
// and fails when a checked configuration's NDCG@k drops below the
// floor.
func TestNDCGFloor(t *testing.T) {
	configs := []struct {
		name string
		opts search.Options
	}{
		{"exact", search.Options{MinUnique: search.MinUniqueDefault, ExactCutoff: math.MaxInt}},
		{"lsh-64x2", search.Options{MinUnique: search.MinUniqueDefault, ExactCutoff: 1, Bands: 64, Rows: 2}},
	}
	for _, prof := range gen.Profiles() {
		c := gen.Generate(prof, 0.1, 1)
		grades := Grades(c)
		for _, cfg := range configs {
			r := Evaluate(c, grades, cfg.opts, DefaultK, 0)
			t.Logf("%s %-8s ndcg@%d=%.3f p@%d=%.3f r@%d=%.3f verified=%d",
				prof.Name, cfg.name, DefaultK, r.NDCG, DefaultK, r.Precision, DefaultK, r.Recall, r.Verified)
			if r.NDCG < ndcgFloor {
				t.Errorf("%s %s: NDCG@%d %.3f below the floor %.2f", prof.Name, cfg.name, DefaultK, r.NDCG, ndcgFloor)
			}
		}
	}
}
