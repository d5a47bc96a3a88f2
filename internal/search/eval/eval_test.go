package eval

import (
	"encoding/json"
	"flag"
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
	res := Evaluate(c, grades, search.Options{}, DefaultK, 0)

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
	opts := search.Options{}
	r1 := Evaluate(c, grades, opts, DefaultK, 1)
	r8 := Evaluate(c, grades, opts, DefaultK, 8)
	if !reflect.DeepEqual(r1, r8) {
		t.Errorf("eval differs across worker counts:\n1: %+v\n8: %+v", r1, r8)
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
// on every study portal.
const ndcgFloor = 0.9

// TestNDCGFloor grades the ranked engine against the generator's
// planted ground truth on all four study portals (scale 0.1, seed 1)
// and fails when a portal's NDCG@k drops below the floor.
func TestNDCGFloor(t *testing.T) {
	for _, prof := range gen.Profiles() {
		c := gen.Generate(prof, 0.1, 1)
		r := Evaluate(c, Grades(c), search.Options{}, DefaultK, 0)
		t.Logf("%s ndcg@%d=%.3f p@%d=%.3f r@%d=%.3f verified=%d",
			prof.Name, DefaultK, r.NDCG, DefaultK, r.Precision, DefaultK, r.Recall, r.Verified)
		if r.NDCG < ndcgFloor {
			t.Errorf("%s: NDCG@%d %.3f below the floor %.2f", prof.Name, DefaultK, r.NDCG, ndcgFloor)
		}
	}
}
