package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"ogdp/internal/core"
	"ogdp/internal/gen"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n       int
		pct, v  float64
		comment string
	}{
		{5, 100, 5, "too few samples for any percentile: the maximum"},
		{19, 100, 19, "p50 needs 20"},
		{20, 50, 10, "p50 with exactly ten beyond"},
		{99, 50, 50, "p90 needs 100"},
		{100, 90, 90, "p90 with exactly ten beyond"},
		{999, 90, 900, "p99 needs 1000"},
		{1000, 99, 990, "p99 with exactly ten beyond"},
		{10000, 99.9, 9990, "p99.9 with exactly ten beyond"},
	} {
		pct, v := tail(seq(tc.n))
		if pct != tc.pct || v != tc.v {
			t.Errorf("tail(1..%d) = p%g %g, want p%g %g (%s)", tc.n, pct, v, tc.pct, tc.v, tc.comment)
		}
	}
	if pct, v := percentile(seq(1000), 50); pct != 50 || v != 500 {
		t.Errorf("percentile(1..1000, 50) = p%g %g, want p50 500", pct, v)
	}
	if pct, v := percentile(seq(500), 99); pct != 90 || v != 450 {
		t.Errorf("percentile(1..500, 99) = p%g %g, want the p90 fallback 450", pct, v)
	}
	if _, v := tail(nil); !math.IsNaN(v) {
		t.Errorf("tail(nil) = %g, want NaN", v)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	eligible := map[string][]string{
		"join":    {"a.csv", "b.csv", "c.csv"},
		"union":   {"a.csv", "b.csv", "c.csv", "d.csv"},
		"profile": {"a.csv", "d.csv"},
		"fd":      {"c.csv"},
		"search":  {"b.csv", "a.csv"},
	}
	a := schedule(7, 1, 2000, defaultMix(), eligible, []int{5, 10}, 1.1)
	b := schedule(7, 1, 2000, defaultMix(), eligible, []int{5, 10}, 1.1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	asked := func(rs []request) map[target]int {
		m := map[target]int{}
		for _, r := range rs {
			m[r.target]++
		}
		return m
	}
	if c := schedule(8, 1, 2000, defaultMix(), eligible, []int{5, 10}, 1.1); reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	} else if !reflect.DeepEqual(asked(a), asked(c)) {
		t.Error("different seeds asked different questions or asked them a different number of times")
	}
	kinds := map[string]int{}
	var gaps float64
	for _, r := range a {
		kinds[r.Kind]++
		gaps += r.Gap
		if usesK(r.Kind) != (r.K != 0) {
			t.Fatalf("request %+v: k set iff the endpoint takes it", r)
		}
	}
	for _, m := range defaultMix() {
		if want := 2000 * float64(m.Weight) / 11; math.Abs(float64(kinds[m.Kind])-want) > 1 {
			t.Errorf("%d %s requests, want %.1f rounded (the 4:2:2:1:2 mix)", kinds[m.Kind], m.Kind, want)
		}
	}
	if mean := gaps / float64(len(a)); mean < 0.9 || mean > 1.1 {
		t.Errorf("mean gap %g, want ~1", mean)
	}
}

func TestQuotaRoundsEachShareAndSumsToN(t *testing.T) {
	if got := quota(10, []float64{1, 1, 1}); !reflect.DeepEqual(got, []int{3, 4, 3}) {
		t.Errorf("quota(10, 1:1:1) = %v, want [3 4 3]", got)
	}
	weights := []float64{1, 0.47, 0.3, 0.2, 0.01, 0.01, 0.01, 0.01}
	var total float64
	for _, w := range weights {
		total += w
	}
	for _, n := range []int{0, 1, 7, 100, 1001} {
		got := quota(n, weights)
		sum := 0
		for i, c := range got {
			sum += c
			if exact := float64(n) * weights[i] / total; float64(c) < math.Floor(exact) || float64(c) > math.Ceil(exact) {
				t.Errorf("quota(%d) share %d = %d, want %g rounded down or up", n, i, c, exact)
			}
		}
		if sum != n {
			t.Errorf("quota(%d) = %v sums to %d", n, got, sum)
		}
	}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	strip := func(ss []spec) []spec {
		out := make([]spec, len(ss))
		for i, s := range ss {
			out[i] = spec{Name: s.Name, Unit: s.Unit, Better: s.Better}
		}
		return out
	}
	if !reflect.DeepEqual(strip(doc.EndToEnd), strip(endToEnd)) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(strip(doc.PerLayer), strip(perLayer)) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's catalogue")
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{wStudy, wServe, wIngest}; !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
}

func TestReportPins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the study five times")
	}
	sc := defaultConfig(wStudy, 1, 1, false).Study
	for seed := range reportPins {
		res := core.Run(gen.Profiles(), studyOptions(sc, seed, runtime.NumCPU()))
		if got := reportHash(res); got != reportPins[seed] {
			t.Errorf("seed %d: report hash %s, pinned %s", seed, got, reportPins[seed])
		}
	}
}

// smokeConfig shrinks every workload to seconds-long runs over tiny
// corpora, pinning the tiny study's reports first.
func smokeConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig(workload, 3, 1, trace)
	cfg.Root = ".."
	cfg.Work = t.TempDir()
	cfg.Study.Scale = 0.01
	cfg.Study.SetupRounds = 1
	cfg.Study.MinReps = 1
	cfg.Study.Pins = map[int64]string{}
	for _, seed := range []int64{cfg.Study.Seed, cfg.Study.HeldOut} {
		cfg.Study.Pins[seed] = reportHash(core.Run(gen.Profiles(), studyOptions(cfg.Study, seed, cfg.Workers)))
	}
	small := corpusConfig{Portal: "SG", Scale: 0.05, Seed: 1}
	cfg.Serve.Corpus = small
	cfg.Serve.FixedRPS = 200
	cfg.Serve.MinRungRequests = 200
	cfg.Serve.RungSeconds = 0.1
	cfg.Serve.LadderRungs = 8
	cfg.Serve.Launches = 2
	cfg.Ingest.Corpus = small
	cfg.Ingest.MinRounds = 6
	cfg.Ingest.CheckEvery = 3
	cfg.Ingest.SetupReps = 1
	return cfg
}

// buildServer builds ogdpserve for the serve smoke runs.
func buildServer(t *testing.T) string {
	bin := t.TempDir()
	cmd := exec.Command("go", "build", "-o", bin, "ogdp/cmd/ogdpserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building ogdpserve: %v\n%s", err, out)
	}
	return bin
}

func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ogdpserve and runs every workload")
	}
	bin := buildServer(t)
	for _, w := range []string{wStudy, wServe, wIngest} {
		t.Run(w, func(t *testing.T) {
			cfg := smokeConfig(t, w, false)
			cfg.Bin = bin
			o, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range endToEnd {
				v, ok := o.Summary[s.Name]
				if !ok || v.Unit != s.Unit || !(v.Value > 0) {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", s.Name, v, ok, s.Unit)
				}
			}
			if o.Attempted == 0 {
				t.Error("no operations attempted")
			}
			if !o.correct() {
				t.Errorf("run not correct: %d of %d failed, checks %+v", o.Failed, o.Attempted, o.Checks)
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ogdpserve and runs every layer replay")
	}
	cfg := smokeConfig(t, wIngest, true)
	cfg.Bin = buildServer(t)
	o, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range perLayer {
		if v, ok := o.Summary[s.Name]; !ok || v.Unit != s.Unit {
			t.Errorf("%s = %+v (present %v), want unit %s", s.Name, v, ok, s.Unit)
		}
	}
}
