// Command perfbench is the repository's benchmark. One command runs
// one of three workloads — the four-portal study, a query server under
// an open-loop request mix, and rolling incremental ingest — checks
// its outputs, and prints every metric by name with its unit.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload study --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the run measures the workload end to end with no
// instrumentation. With --trace 1 it instead times calls into each
// layer's public entry points from outside the program, for the study,
// the query service and ingest alike, and reports how much slower the
// timed path of its own workload ran than the untimed one.
//
// Standard output ends with two JSON lines: the full record
// (environment fingerprint, resolved config, every metric under its
// workload-specific name, every check), then the summary line
// {"correct", "attempted", "failed", "metrics"}. A human-readable
// table goes to standard error. The exit code is non-zero when a
// correctness check fails or the run cannot complete.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

// Workload names.
const (
	wStudy  = "study"
	wServe  = "serve-mixed"
	wIngest = "ingest-rolling"
)

// config is the fully resolved configuration of one run; its hash is
// part of the record's fingerprint.
type config struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	Workers  int    `json:"workers"`

	Study  studyConfig  `json:"study"`
	Serve  serveConfig  `json:"serve"`
	Ingest ingestConfig `json:"ingest"`

	// Root is the repository checkout; Bin holds the built server
	// binary; Work is the scratch directory (inside the checkout).
	Root string `json:"-"`
	Bin  string `json:"-"`
	Work string `json:"-"`
}

func (c config) hash() string {
	b, err := json.Marshal(c)
	if err != nil {
		return "unhashable"
	}
	return fmt.Sprintf("%016x", fnv64(b))
}

// scale is the corpus scale of the run's workload.
func (c config) scale() float64 {
	if c.Workload == wStudy {
		return c.Study.Scale
	}
	return c.Serve.Corpus.Scale
}

// defaultConfig resolves every setting of a run.
func defaultConfig(workload string, seed int64, seconds int, trace bool) config {
	workers := runtime.NumCPU()
	corpus := corpusConfig{Portal: "CA", Scale: 0.5, Seed: 1}
	return config{
		Workload: workload,
		Seed:     seed,
		Seconds:  seconds,
		Trace:    trace,
		Workers:  workers,
		Study: studyConfig{
			Scale:       0.05,
			Seed:        1,
			HeldOut:     heldOutSeed(seed),
			SetupRounds: 9,
			MinReps:     3,
			Pins:        reportPins,
		},
		Serve: serveConfig{
			Corpus:          corpus,
			Mix:             defaultMix(),
			Ks:              []int{5, 10},
			ZipfS:           1.1,
			PopularitySeed:  corpus.Seed,
			Conns:           workers,
			FixedRPS:        500,
			PhaseShare:      0.8,
			LadderBase:      100,
			LadderStep:      1.1,
			LadderRungs:     64,
			RungSeconds:     0.5,
			MinRungRequests: 500,
			LimitMs:         25,
			Launches:        9,
			FixedAttempts:   3,
		},
		Ingest: ingestConfig{
			Corpus:          corpus,
			MinRounds:       100,
			RoundsPerSecond: 5,
			UpdateFrac:      0.05,
			SetupReps:       9,
			CheckEvery:      25,
		},
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")

	workload := flag.String("workload", "", "workload to run: study, serve-mixed or ingest-rolling")
	seed := flag.Int64("seed", 1, "workload seed (inputs are a pure function of it)")
	seconds := flag.Int("seconds", 30, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run instead of end-to-end metrics")
	bin := flag.String("bin", "", "directory holding the ogdpserve binary (run.sh builds it)")
	work := flag.String("work", "", "scratch directory for corpora and snapshots (default .bench_build/work)")
	flag.Parse()

	switch *workload {
	case wStudy, wServe, wIngest:
	default:
		log.Fatalf("unknown -workload %q (want %s, %s or %s)", *workload, wStudy, wServe, wIngest)
	}
	if *seconds < 1 {
		log.Fatal("-seconds must be at least 1")
	}
	root, err := os.Getwd()
	if err != nil {
		log.Fatal(err)
	}
	cfg := defaultConfig(*workload, *seed, *seconds, *trace == 1)
	cfg.Root = root
	cfg.Bin = *bin
	if cfg.Bin == "" {
		cfg.Bin = filepath.Join(root, ".bench_build", "bin")
	}
	cfg.Work = *work
	if cfg.Work == "" {
		cfg.Work = filepath.Join(root, ".bench_build", "work")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	o, err := run(ctx, cfg)
	stop()
	if err != nil {
		log.Fatal(err)
	}
	if err := emit(os.Stdout, os.Stderr, cfg, o); err != nil {
		log.Fatal(err)
	}
	if !o.correct() {
		os.Exit(1)
	}
}

// run executes one workload in a private scratch directory that it
// removes afterwards.
func run(ctx context.Context, cfg config) (*outcome, error) {
	if err := os.MkdirAll(cfg.Work, 0o755); err != nil {
		return nil, fmt.Errorf("creating work dir: %w", err)
	}
	dir, err := os.MkdirTemp(cfg.Work, "run-")
	if err != nil {
		return nil, fmt.Errorf("creating run dir: %w", err)
	}
	defer os.RemoveAll(dir)

	if cfg.Trace {
		return runTraced(ctx, cfg, dir)
	}
	var o *outcome
	switch cfg.Workload {
	case wStudy:
		o, err = runStudy(cfg)
	case wServe:
		o, err = runServe(ctx, cfg, dir)
	default:
		o, err = runIngest(cfg, dir)
	}
	if err != nil {
		return nil, err
	}
	for _, s := range endToEnd {
		if _, ok := o.Summary[s.Name]; !ok {
			return nil, fmt.Errorf("%s run did not measure %s", cfg.Workload, s.Name)
		}
	}
	return o, nil
}

// runTraced measures every layer of the system: the study's, the query
// service's and ingest's, so that a traced run of any workload yields
// the whole per-layer table. The tracing overhead it reports is that
// of the run's own workload path.
func runTraced(ctx context.Context, cfg config, dir string) (*outcome, error) {
	o := &outcome{}
	overhead := map[string]float64{}
	var err error
	if overhead[wStudy], err = traceStudy(cfg, o); err != nil {
		return nil, err
	}
	if overhead[wServe], err = traceServe(ctx, cfg, filepath.Join(dir, "serve"), o); err != nil {
		return nil, err
	}
	if overhead[wIngest], err = traceIngest(cfg, filepath.Join(dir, "ingest"), o); err != nil {
		return nil, err
	}
	o.set("trace.overhead_pct", overhead[cfg.Workload], unitPct)
	// Every per-layer metric goes into the record with the end-to-end
	// metric it should move; those a replay already recorded (with
	// sample counts) are annotated in place.
	specs := map[string]spec{}
	for _, s := range perLayer {
		if _, ok := o.Summary[s.Name]; !ok {
			return nil, fmt.Errorf("traced run did not measure %s", s.Name)
		}
		specs[s.Name] = s
	}
	for i := range o.Named {
		if s, ok := specs[o.Named[i].Name]; ok {
			o.Named[i].Better, o.Named[i].Moves = s.Better, s.Moves
			delete(specs, s.Name)
		}
	}
	for _, s := range perLayer {
		if _, ok := specs[s.Name]; ok {
			v := o.Summary[s.Name]
			o.add(named{Name: s.Name, Value: v.Value, Unit: v.Unit, Better: s.Better, Moves: s.Moves})
		}
	}
	return o, nil
}
