package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ogdp/internal/obs"
)

// Metric units.
const (
	unitS     = "s"
	unitMs    = "ms"
	unitMB    = "MB"
	unitPerS  = "1/s"
	unitCount = "count"
	unitRatio = "ratio"
	unitBytes = "bytes"
	unitPct   = "%"
)

// spec describes one metric of the catalogue.
type spec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Moves names the end-to-end metric a per-layer metric should move.
	Moves string `json:"moves,omitempty"`
}

// endToEnd is BENCHMARK.json's end-to-end metric set. Every workload
// reports all of them; README.md defines each one per workload.
var endToEnd = []spec{
	{Name: "setup_s", Unit: unitS, Better: "lower"},
	{Name: "p50_ms", Unit: unitMs, Better: "lower"},
	{Name: "tail_ms", Unit: unitMs, Better: "lower"},
	{Name: "alloc_mb", Unit: unitMB, Better: "lower"},
	{Name: "rss_mb", Unit: unitMB, Better: "lower"},
}

// perLayer is the traced metric set, each with the end-to-end metric
// (by its workload-specific name) it should move.
var perLayer = []spec{
	{"gen.generate_s", unitS, "lower", "study setup_s"},
	{"table.profile_s", unitS, "lower", "study_s"},
	{"table.canon_s", unitS, "lower", "study_s"},
	{"fd.discover_s", unitS, "lower", "study_s"},
	{"fd.cardinalities", unitCount, "lower", "study_s"},
	{"normalize.decompose_s", unitS, "lower", "study_s"},
	{"keys.min_key_s", unitS, "lower", "study_s"},
	{"join.find_s", unitS, "lower", "study_s"},
	{"join.candidates", unitCount, "lower", "study_s"},
	{"join.pairs", unitCount, "higher", "study_s"},
	{"join.useful_ratio", unitRatio, "higher", "study_s"},
	{"union.find_s", unitS, "lower", "study_s"},
	{"classify.label_s", unitS, "lower", "study_s"},
	{"ckan.funnel_s", unitS, "lower", "study_s"},
	{"ckan.requests", unitCount, "lower", "study_s"},
	{"profile.stats_s", unitS, "lower", "study_s"},
	{"ind.discover_s", unitS, "lower", "study_s"},
	{"report.render_s", unitS, "lower", "study_s"},
	{"study.slowest_portal_s", unitS, "lower", "study_s"},
	{"diskcorpus.load_ms", unitMs, "lower", "serve setup_s"},
	{"query.new_ms", unitMs, "lower", "serve setup_s"},
	{"query.join_p50_ms", unitMs, "lower", "serve_miss_p50_ms"},
	{"query.join_p99_ms", unitMs, "lower", "serve_miss_p99_ms"},
	{"query.union_p50_ms", unitMs, "lower", "serve_miss_p50_ms"},
	{"query.union_p99_ms", unitMs, "lower", "serve_miss_p99_ms"},
	{"query.profile_p50_ms", unitMs, "lower", "serve_miss_p50_ms"},
	{"query.profile_p99_ms", unitMs, "lower", "serve_miss_p99_ms"},
	{"query.fd_p50_ms", unitMs, "lower", "serve_miss_p50_ms"},
	{"query.fd_p99_ms", unitMs, "lower", "serve_miss_p99_ms"},
	{"query.search_p50_ms", unitMs, "lower", "serve_miss_p50_ms"},
	{"query.search_p99_ms", unitMs, "lower", "serve_miss_p99_ms"},
	{"search.candidates", unitCount, "lower", "serve_miss_p99_ms"},
	{"search.verified", unitCount, "lower", "serve_miss_p99_ms"},
	{"serve.cache_hit_ratio", unitRatio, "higher", "serve_hit_p50_ms serve_max_rps"},
	{"serve.rejected", unitCount, "lower", "serve_max_rps"},
	{"loadgen.lag_p50_ms", unitMs, "lower", "none (generator health)"},
	{"loadgen.lag_p99_ms", unitMs, "lower", "none (generator health)"},
	{"ingest.detect_ms", unitMs, "lower", "ingest_round_p50_ms"},
	{"ingest.apply_ms", unitMs, "lower", "ingest_round_p50_ms ingest_write_amp"},
	{"query.apply_delta_ms", unitMs, "lower", "ingest_round_p50_ms"},
	{"colstore.bytes_written", unitBytes, "lower", "ingest_round_p50_ms ingest_write_amp"},
	{"query.rebuild_ms", unitMs, "lower", "none (rebuild vs patch rule)"},
	{"trace.overhead_pct", unitPct, "lower", "none (tracing cost)"},
}

// value is one measured number with its unit, the shape of the
// summary line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named is one metric of the full record: a workload-specific name
// (the ones README.md lists), its unit, and how it was sampled.
type named struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better,omitempty"`
	Samples int     `json:"samples,omitempty"`
	// Pct is the percentile a tail value was read at (see tail).
	Pct float64 `json:"pct,omitempty"`
	// Moves names, for a per-layer metric, the end-to-end metric it
	// should move.
	Moves string `json:"moves,omitempty"`
}

// outcome is what one workload run produces.
type outcome struct {
	// Summary holds the summary-line metrics (endToEnd or perLayer).
	Summary map[string]value
	// Named holds the workload's metrics under their own names.
	Named     []named
	Attempted int
	Failed    int
	// Checks lists every correctness check with its result.
	Checks []check
	// Invalid lists why the run's measurements cannot be trusted even
	// though its outputs are correct (empty for a valid run).
	Invalid []string
	// Corpus is the content hash of the corpus the run measured.
	Corpus string
}

// check is one correctness check.
type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Note string `json:"note,omitempty"`
}

func (o *outcome) check(name string, ok bool, note string) {
	o.Checks = append(o.Checks, check{Name: name, OK: ok, Note: note})
}

func (o *outcome) correct() bool {
	for _, c := range o.Checks {
		if !c.OK {
			return false
		}
	}
	return o.Failed == 0 && len(o.Checks) > 0
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.Summary == nil {
		o.Summary = map[string]value{}
	}
	o.Summary[name] = value{Value: v, Unit: unit}
}

func (o *outcome) add(n named) { o.Named = append(o.Named, n) }

// fingerprint is the environment a record was measured on.
type fingerprint struct {
	Cores      int     `json:"cores"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Corpus     string  `json:"corpus_hash"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	ConfigHash string  `json:"config_hash"`
}

// record is the full result of one run: printed on the line before the
// summary line.
type record struct {
	Benchmark string      `json:"benchmark"`
	Workload  string      `json:"workload"`
	Trace     bool        `json:"trace"`
	Env       fingerprint `json:"env"`
	Config    config      `json:"config"`
	Metrics   []named     `json:"metrics"`
	Checks    []check     `json:"checks"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Correct   bool        `json:"correct"`
	Valid     bool        `json:"valid"`
	Invalid   []string    `json:"invalid,omitempty"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// emit writes the full record, then the summary line, to w, and a
// human-readable table to log.
func emit(w, log io.Writer, cfg config, o *outcome) error {
	rec := record{
		Benchmark: "perfbench",
		Workload:  cfg.Workload,
		Trace:     cfg.Trace,
		Env: fingerprint{
			Cores:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Commit:     sourceCommit(cfg.Root),
			Corpus:     o.Corpus,
			Seed:       cfg.Seed,
			Scale:      cfg.scale(),
			ConfigHash: cfg.hash(),
		},
		Config:    cfg,
		Metrics:   o.Named,
		Checks:    o.Checks,
		Attempted: o.Attempted,
		Failed:    o.Failed,
		Correct:   o.correct(),
		Valid:     len(o.Invalid) == 0,
		Invalid:   o.Invalid,
	}
	for _, n := range o.Named {
		fmt.Fprintf(log, "  %-28s %14.6g %-6s", n.Name, n.Value, n.Unit)
		if n.Samples > 0 {
			fmt.Fprintf(log, " n=%d", n.Samples)
		}
		if n.Pct > 0 {
			fmt.Fprintf(log, " at p%g", n.Pct)
		}
		fmt.Fprintln(log)
	}
	for _, c := range o.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(log, "  check %-32s %s %s\n", c.Name, status, c.Note)
	}
	for _, why := range o.Invalid {
		fmt.Fprintf(log, "  INVALID measurement: %s\n", why)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encoding record: %w", err)
	}
	sum, err := json.Marshal(summary{Correct: rec.Correct, Attempted: o.Attempted, Failed: o.Failed, Metrics: o.Summary})
	if err != nil {
		return fmt.Errorf("encoding summary: %w", err)
	}
	if _, err := fmt.Fprintf(w, "%s\n%s\n", line, sum); err != nil {
		return fmt.Errorf("writing result: %w", err)
	}
	return nil
}

// sourceCommit identifies the measured source: the git commit when the
// tree is a repository, else an FNV-64a digest of every go.mod and .go
// file under root (the benchmark also runs from plain checkouts).
func sourceCommit(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(root, ".git", r)); err == nil {
				return strings.TrimSpace(string(id))
			}
		} else {
			return ref
		}
	}
	h := fnv.New64a()
	var files []string
	_ = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries simply do not contribute
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel))
		h.Write(b)
	}
	return fmt.Sprintf("tree:%016x", h.Sum64())
}

// rank is the 1-based nearest rank of quantile q (0 < q <= 1) among n
// samples; the epsilon keeps q·n from rounding up past an exact rank.
func rank(q float64, n int) int {
	return max(1, int(math.Ceil(q*float64(n)-1e-9)))
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted
// samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(q, len(sorted))-1]
}

// tailLadder is the percentile ladder tail picks from, highest first.
var tailLadder = []float64{99.9, 99, 90, 50}

// tail returns the highest percentile of tailLadder that has at least
// ten samples beyond it, and its value. With fewer than twenty samples
// no percentile qualifies and the maximum is returned as p100.
func tail(sorted []float64) (pct, v float64) {
	n := len(sorted)
	for _, p := range tailLadder {
		if r := rank(p/100, n); n-r >= 10 {
			return p, sorted[r-1]
		}
	}
	if n == 0 {
		return 100, math.NaN()
	}
	return 100, sorted[n-1]
}

// percentile returns the nearest-rank p-th percentile when at least ten
// samples lie beyond it, else the tail.
func percentile(sorted []float64, p float64) (pct, v float64) {
	if r := rank(p/100, len(sorted)); len(sorted)-r >= 10 {
		return p, sorted[r-1]
	}
	return tail(sorted)
}

// sortedMs converts durations to sorted milliseconds.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// median of unsorted values.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// counterSum totals every labeled series of a counter in a snapshot.
func counterSum(s *obs.Snapshot, name string) float64 {
	var sum float64
	for _, m := range s.Metrics {
		if m.Name == name {
			sum += m.Value
		}
	}
	return sum
}

// fnv64 is the FNV-64a digest used for body and report hashes.
func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
