package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"ogdp/internal/diskcorpus"
	"ogdp/internal/ingest"
	"ogdp/internal/query"
)

// ingestConfig sizes the ingest-rolling workload.
type ingestConfig struct {
	Corpus corpusConfig `json:"corpus"`
	// A run makes RoundsPerSecond rounds per second of --seconds, and
	// at least MinRounds (the traced run makes exactly MinRounds).
	MinRounds       int `json:"min_rounds"`
	RoundsPerSecond int `json:"rounds_per_second"`
	// UpdateFrac is the share of tables a round updates (each gains one
	// row); every round also adds one table and deletes one.
	UpdateFrac float64 `json:"update_frac"`
	// SetupReps is how many times set-up (load + build) is repeated.
	SetupReps int `json:"setup_reps"`
	// CheckEvery is how often (in rounds) the patched service is
	// compared with a rebuild, besides after the last round.
	CheckEvery int `json:"check_every"`
}

// roller drives rounds of snapshot changes against a saved corpus and
// a live service over it.
type roller struct {
	cfg       config
	corpusDir string
	snapDir   string
	rng       *rand.Rand
	names     []string          // snapshot tables, sorted
	origin    map[string]string // republished name -> original name
	svc       *query.Service
	round     int
	// heldMB is the process's resident memory after the last round.
	heldMB float64
}

// newRoller saves the corpus and mirrors its CSVs into a snapshot
// directory.
func newRoller(cfg config, dir string) (*roller, error) {
	r := &roller{
		cfg:       cfg,
		corpusDir: filepath.Join(dir, "corpus"),
		snapDir:   filepath.Join(dir, "snapshot"),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		origin:    map[string]string{},
	}
	if _, err := saveCorpus(cfg.Ingest.Corpus, r.corpusDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(r.snapDir, 0o755); err != nil {
		return nil, fmt.Errorf("creating snapshot dir: %w", err)
	}
	entries, err := os.ReadDir(r.corpusDir)
	if err != nil {
		return nil, fmt.Errorf("listing corpus: %w", err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".csv") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(r.corpusDir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("reading corpus table: %w", err)
		}
		if err := os.WriteFile(filepath.Join(r.snapDir, e.Name()), b, 0o644); err != nil {
			return nil, fmt.Errorf("writing snapshot table: %w", err)
		}
		r.names = append(r.names, e.Name())
	}
	sort.Strings(r.names)
	return r, nil
}

// build loads the corpus directory and builds a service over it,
// returning the time each step took.
func (r *roller) build() (*query.Service, time.Duration, time.Duration, error) {
	t0 := time.Now()
	src, err := diskcorpus.LoadStudy(r.corpusDir)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("loading corpus: %w", err)
	}
	t1 := time.Now()
	svc := query.New(src, query.Options{Workers: r.cfg.Workers})
	return svc, t1.Sub(t0), time.Since(t1), nil
}

// setup times the service start-up (load + build) SetupReps times and
// keeps the last service live.
func (r *roller) setup() ([]float64, error) {
	var secs []float64
	for i := 0; i < r.cfg.Ingest.SetupReps; i++ {
		runtime.GC()
		svc, load, build, err := r.build()
		if err != nil {
			return nil, err
		}
		secs = append(secs, (load + build).Seconds())
		r.svc = svc
	}
	return secs, nil
}

// prepare changes the snapshot for the next round (untimed): ~UpdateFrac
// of the tables gain one row copied from their own data, and one other
// table is republished under a new name with one more row (one table
// added, one deleted). Republishing keeps the corpus's make-up, and so
// the cost of a round, the same from round to round. It returns how
// many tables it updated.
func (r *roller) prepare() (int, error) {
	r.round++
	n := len(r.names)
	updates := int(r.cfg.Ingest.UpdateFrac*float64(n) + 0.5)
	perm := r.rng.Perm(n)
	for _, i := range perm[:updates] {
		path := filepath.Join(r.snapDir, r.names[i])
		b, err := os.ReadFile(path)
		if err != nil {
			return 0, fmt.Errorf("reading snapshot table: %w", err)
		}
		if err := os.WriteFile(path, r.withRow(b), 0o644); err != nil {
			return 0, fmt.Errorf("updating snapshot table: %w", err)
		}
	}
	gone := r.names[perm[updates]]
	b, err := os.ReadFile(filepath.Join(r.snapDir, gone))
	if err != nil {
		return 0, fmt.Errorf("reading snapshot table: %w", err)
	}
	orig, ok := r.origin[gone]
	if !ok {
		orig = gone
	}
	delete(r.origin, gone)
	added := fmt.Sprintf("r%04d-%s", r.round, orig)
	r.origin[added] = orig
	if err := os.WriteFile(filepath.Join(r.snapDir, added), r.withRow(b), 0o644); err != nil {
		return 0, fmt.Errorf("adding snapshot table: %w", err)
	}
	if err := os.Remove(filepath.Join(r.snapDir, gone)); err != nil {
		return 0, fmt.Errorf("deleting snapshot table: %w", err)
	}
	r.names = append(r.names[:perm[updates]], r.names[perm[updates]+1:]...)
	i := sort.SearchStrings(r.names, added)
	r.names = append(r.names[:i], append([]string{added}, r.names[i:]...)...)
	// The snapshot stands for files arriving from outside; writing them
	// back to disk is not the round's work, so it happens here, untimed.
	syscall.Sync()
	return updates, nil
}

// withRow appends a copy of one of the CSV's data records (the header
// when there is none) to its bytes.
func (r *roller) withRow(b []byte) []byte {
	rd := csv.NewReader(bytes.NewReader(b))
	rd.FieldsPerRecord = -1
	rd.LazyQuotes = true
	recs, err := rd.ReadAll()
	var row []string
	switch {
	case err != nil || len(recs) == 0:
		row = []string{fmt.Sprintf("row-%d", r.round)}
	case len(recs) == 1:
		row = recs[0]
	default:
		row = recs[1+r.rng.Intn(len(recs)-1)]
	}
	var out bytes.Buffer
	out.Write(b)
	if len(b) > 0 && b[len(b)-1] != '\n' {
		out.WriteByte('\n')
	}
	w := csv.NewWriter(&out)
	_ = w.Write(row) // writes into a bytes.Buffer cannot fail
	w.Flush()
	return out.Bytes()
}

// roundStats is one round's measurements.
type roundStats struct {
	total, detect, apply, delta time.Duration
	written, snapBytes          int64
	allocMB                     float64
	plan                        *ingest.Plan
}

// step runs one timed round: Detect, Apply, ApplyDelta. With traced
// set, each stage is timed separately.
func (r *roller) step(traced bool) (roundStats, error) {
	var st roundStats
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w0, err := writtenBytes()
	if err != nil {
		return st, err
	}
	start := time.Now()
	plan, err := ingest.Detect(r.corpusDir, r.snapDir)
	if err != nil {
		return st, err
	}
	if traced {
		st.detect = time.Since(start)
	}
	t1 := time.Now()
	if err := ingest.Apply(r.corpusDir, plan); err != nil {
		return st, err
	}
	if traced {
		st.apply = time.Since(t1)
	}
	t2 := time.Now()
	if err := r.svc.ApplyDelta(ingest.QueryDelta(plan)); err != nil {
		return st, fmt.Errorf("applying delta: %w", err)
	}
	if traced {
		st.delta = time.Since(t2)
	}
	st.total = time.Since(start)
	w1, err := writtenBytes()
	if err != nil {
		return st, err
	}
	runtime.ReadMemStats(&m1)
	st.written = w1 - w0
	st.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	for _, ch := range append(plan.Added, plan.Updated...) {
		st.snapBytes += int64(len(ch.Body))
	}
	st.plan = plan
	return st, nil
}

// verifyRound checks a round (untimed): the plan matched what was
// prepared and a second Detect finds nothing left to do. With rebuild
// set it also builds a fresh service over the patched directory and
// compares it with the live one, returning the rebuild's time.
func (r *roller) verifyRound(o *outcome, st roundStats, updates int, rebuild bool) (time.Duration, error) {
	p := st.plan
	if len(p.Added) != 1 || len(p.Deleted) != 1 || len(p.Updated) != updates {
		o.Failed++
		o.check(fmt.Sprintf("round %d delta", r.round), false,
			fmt.Sprintf("%s, want 1 added, %d updated, 1 deleted", p.Summary(), updates))
	}
	again, err := ingest.Detect(r.corpusDir, r.snapDir)
	if err != nil {
		return 0, err
	}
	if !again.Empty() {
		o.Failed++
		o.check(fmt.Sprintf("round %d second Detect", r.round), false, again.Summary())
	}
	if !rebuild {
		return 0, nil
	}
	fresh, load, build, err := r.build()
	if err != nil {
		return 0, err
	}
	ok := fresh.HashString() == r.svc.HashString() && fresh.NumTables() == r.svc.NumTables() &&
		fresh.NumIndexed() == r.svc.NumIndexed()
	if !ok {
		o.Failed++
		o.check(fmt.Sprintf("round %d patch equals rebuild", r.round), false,
			fmt.Sprintf("patched %s/%d tables/%d indexed, rebuilt %s/%d/%d", r.svc.HashString(), r.svc.NumTables(),
				r.svc.NumIndexed(), fresh.HashString(), fresh.NumTables(), fresh.NumIndexed()))
	}
	return load + build, nil
}

// rollRounds runs n rounds. Each round is verified; a rebuild
// comparison runs every CheckEvery rounds and after the last. traced
// selects per-stage timing for odd rounds.
func (r *roller) rollRounds(o *outcome, n int, traced bool) ([]roundStats, []float64, error) {
	var stats []roundStats
	var rebuilds []float64
	for len(stats) < n {
		updates, err := r.prepare()
		if err != nil {
			return nil, nil, err
		}
		st, err := r.step(traced && len(stats)%2 == 1)
		if err != nil {
			return nil, nil, err
		}
		stats = append(stats, st)
		last := len(stats) == n
		if last {
			// Before the final rebuild adds a second service.
			if r.heldMB, err = heldRSSMB(); err != nil {
				return nil, nil, err
			}
		}
		d, err := r.verifyRound(o, st, updates, last || r.round%r.cfg.Ingest.CheckEvery == 0)
		if err != nil {
			return nil, nil, err
		}
		if d > 0 {
			rebuilds = append(rebuilds, float64(d)/float64(time.Millisecond))
		}
		o.Attempted++
	}
	o.check(fmt.Sprintf("%d rounds: deltas as prepared, second Detect empty, patch equals %d rebuilds",
		len(stats), len(rebuilds)), o.Failed == 0, "")
	return stats, rebuilds, nil
}

// runIngest measures rolling incremental ingest into a live service.
func runIngest(cfg config, dir string) (*outcome, error) {
	o := &outcome{}
	r, err := newRoller(cfg, dir)
	if err != nil {
		return nil, err
	}
	setups, err := r.setup()
	if err != nil {
		return nil, err
	}
	o.Corpus = r.svc.HashString()
	stats, rebuilds, err := r.rollRounds(o, max(cfg.Ingest.MinRounds, cfg.Ingest.RoundsPerSecond*cfg.Seconds), false)
	if err != nil {
		return nil, err
	}

	var rounds []time.Duration
	var allocs []float64
	var written, snap int64
	for _, st := range stats {
		rounds = append(rounds, st.total)
		allocs = append(allocs, st.allocMB)
		written += st.written
		snap += st.snapBytes
	}
	all, csvBytes, err := dirBytes(r.corpusDir, ".csv")
	if err != nil {
		return nil, err
	}
	ms := sortedMs(rounds)
	pct, p90 := percentile(ms, 90)
	setup := median(setups)
	alloc := median(allocs)
	rss := r.heldMB
	amp := float64(written) / float64(snap)
	o.set("setup_s", setup, unitS)
	o.set("p50_ms", quantile(ms, 0.5), unitMs)
	o.set("tail_ms", quantile(ms, 0.9), unitMs)
	o.set("alloc_mb", alloc, unitMB)
	o.set("rss_mb", rss, unitMB)
	o.add(named{Name: "setup_s", Value: setup, Unit: unitS, Better: "lower", Samples: len(setups)})
	o.add(named{Name: "ingest_round_p50_ms", Value: quantile(ms, 0.5), Unit: unitMs, Better: "lower", Samples: len(ms)})
	o.add(named{Name: "ingest_round_p90_ms", Value: p90, Unit: unitMs, Better: "lower", Samples: len(ms), Pct: pct})
	o.add(named{Name: "ingest_write_amp", Value: amp, Unit: unitRatio, Better: "lower"})
	o.add(named{Name: "store_bytes_ratio", Value: float64(all) / float64(csvBytes), Unit: unitRatio, Better: "lower"})
	o.add(named{Name: "ingest_alloc_mb_per_round", Value: alloc, Unit: unitMB, Better: "lower", Samples: len(allocs)})
	o.add(named{Name: "ingest_held_rss_mb", Value: rss, Unit: unitMB, Better: "lower"})
	o.add(named{Name: "ingest_peak_rss_mb", Value: maxRSSMB(), Unit: unitMB, Better: "lower"})
	o.add(named{Name: "query.rebuild_ms", Value: median(rebuilds), Unit: unitMs, Better: "lower", Samples: len(rebuilds)})
	return o, nil
}

// traceIngest times each ingest stage on alternate rounds; the other
// rounds are timed only as a whole, and the overhead compares the two
// halves' medians.
func traceIngest(cfg config, dir string, o *outcome) (float64, error) {
	r, err := newRoller(cfg, dir)
	if err != nil {
		return 0, err
	}
	if _, err := r.setup(); err != nil {
		return 0, err
	}
	stats, rebuilds, err := r.rollRounds(o, cfg.Ingest.MinRounds, true)
	if err != nil {
		return 0, err
	}
	var plain, timed []float64
	var detect, apply, delta []float64
	var written int64
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for i, st := range stats {
		written += st.written
		if i%2 == 0 {
			plain = append(plain, ms(st.total))
			continue
		}
		timed = append(timed, ms(st.total))
		detect = append(detect, ms(st.detect))
		apply = append(apply, ms(st.apply))
		delta = append(delta, ms(st.delta))
	}
	o.set("ingest.detect_ms", median(detect), unitMs)
	o.set("ingest.apply_ms", median(apply), unitMs)
	o.set("query.apply_delta_ms", median(delta), unitMs)
	o.set("colstore.bytes_written", float64(written)/float64(len(stats)), unitBytes)
	o.set("query.rebuild_ms", median(rebuilds), unitMs)
	return 100 * (median(timed) - median(plain)) / median(plain), nil
}
