package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"time"

	"ogdp/internal/ckan"
	"ogdp/internal/classify"
	"ogdp/internal/core"
	"ogdp/internal/corpus"
	"ogdp/internal/csvio"
	"ogdp/internal/fd"
	"ogdp/internal/gen"
	"ogdp/internal/ind"
	"ogdp/internal/join"
	"ogdp/internal/keys"
	"ogdp/internal/normalize"
	"ogdp/internal/obs"
	"ogdp/internal/profile"
	"ogdp/internal/report"
	"ogdp/internal/table"
	"ogdp/internal/union"
)

// studyConfig sizes the study workload: ogdpreport's default options
// over the four calibrated portals.
type studyConfig struct {
	Scale float64 `json:"scale"`
	// Seed is the timed study seed; HeldOut is a second pinned seed
	// whose report is checked once per run, untimed.
	Seed    int64 `json:"seed"`
	HeldOut int64 `json:"held_out_seed"`
	// SetupRounds is how many times set-up (generating the four
	// portals) is repeated; setup_s is their median.
	SetupRounds int `json:"setup_rounds"`
	// MinReps is the fewest timed core.Run repetitions.
	MinReps int `json:"min_reps"`
	// Pins maps a seed to the expected report hash at Scale.
	Pins map[int64]string `json:"pins"`
}

// reportPins are the FNV-64a hashes of report.All's bytes for the
// study at scale 0.05 and the given seed. A change that alters any
// reported number fails the study's correctness check.
var reportPins = map[int64]string{
	1: "fc65df4ade5a1c68",
	2: "1223a95fe196be1f",
	3: "f319ad480bf1aaea",
	4: "481ac10a00f00bc5",
	5: "2b04ae282bfaf432",
}

// heldOutSeed picks the held-out pinned seed from the run seed.
func heldOutSeed(seed int64) int64 {
	return 2 + (seed%4+4)%4
}

func studyOptions(sc studyConfig, seed int64, workers int) core.Options {
	return core.Options{
		Scale:       sc.Scale,
		Seed:        seed,
		Compress:    true,
		FetchFunnel: true,
		Sensitivity: true,
		Extensions:  true,
		Workers:     workers,
	}
}

// generateAll is the study's set-up: every portal generated the way
// core.Run generates it.
func generateAll(sc studyConfig, seed int64) []*gen.Corpus {
	profiles := gen.Profiles()
	out := make([]*gen.Corpus, len(profiles))
	for i, p := range profiles {
		out[i] = gen.Generate(p, sc.Scale, seed+int64(i))
	}
	return out
}

// corporaHash digests the CSV bytes of every generated table.
func corporaHash(cs []*gen.Corpus) string {
	var h uint64
	for _, c := range cs {
		for _, t := range c.Tables() {
			h = h*1099511628211 ^ fnv64(csvio.Bytes(t))
		}
	}
	return fmt.Sprintf("%016x", h)
}

// reportHash renders report.All and digests it.
func reportHash(res *core.StudyResult) string {
	var buf bytes.Buffer
	report.All(&buf, res)
	return fmt.Sprintf("%016x", fnv64(buf.Bytes()))
}

// checkReport compares a rendered report's hash with its pin.
func checkReport(o *outcome, sc studyConfig, res *core.StudyResult, seed int64) {
	got := reportHash(res)
	want := sc.Pins[seed]
	o.check(fmt.Sprintf("report hash seed %d", seed), got == want, fmt.Sprintf("got %s want %s", got, want))
}

// runStudy measures set-up (generating the four portals) and then
// core.Run repeatedly for the run's seconds, checking every report
// against its pin.
func runStudy(cfg config) (*outcome, error) {
	sc := cfg.Study
	o := &outcome{}
	var setups []float64
	for i := 0; i < sc.SetupRounds; i++ {
		runtime.GC()
		start := time.Now()
		cs := generateAll(sc, sc.Seed)
		setups = append(setups, time.Since(start).Seconds())
		if i == 0 {
			o.Corpus = corporaHash(cs)
		}
	}

	// The held-out seed guards against output tuned to the timed seed;
	// its untimed run also warms the process up (heap growth, GC pacing)
	// before the timed runs.
	checkReport(o, sc, core.Run(gen.Profiles(), studyOptions(sc, sc.HeldOut, cfg.Workers)), sc.HeldOut)
	o.Attempted++

	opts := studyOptions(sc, sc.Seed, cfg.Workers)
	budget := time.Duration(cfg.Seconds) * time.Second
	var walls []time.Duration
	var allocs, peaks []float64
	var spent time.Duration
	for len(walls) < sc.MinReps || spent < budget {
		settle()
		resetPeakRSS("self")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		res := core.Run(gen.Profiles(), opts)
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		peak, err := procMB("self", "VmHWM")
		if err != nil {
			return nil, err
		}
		walls = append(walls, d)
		spent += d
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		peaks = append(peaks, peak)
		o.Attempted++
		if reportHash(res) != sc.Pins[sc.Seed] {
			o.Failed++
		}
	}
	o.check(fmt.Sprintf("report hash seed %d, %d runs", sc.Seed, len(walls)), o.Failed == 0, "")

	ms := sortedMs(walls)
	pct, tl := tail(ms)
	setup := median(setups)
	alloc := median(allocs)
	rss := median(peaks)
	o.set("setup_s", setup, unitS)
	o.set("p50_ms", quantile(ms, 0.5), unitMs)
	o.set("tail_ms", quantile(ms, 0.9), unitMs)
	o.set("alloc_mb", alloc, unitMB)
	o.set("rss_mb", rss, unitMB)
	o.add(named{Name: "setup_s", Value: setup, Unit: unitS, Better: "lower", Samples: len(setups)})
	o.add(named{Name: "study_s", Value: quantile(ms, 0.5) / 1000, Unit: unitS, Better: "lower", Samples: len(ms)})
	o.add(named{Name: "study_tail_s", Value: tl / 1000, Unit: unitS, Better: "lower", Samples: len(ms), Pct: pct})
	o.add(named{Name: "study_alloc_mb", Value: alloc, Unit: unitMB, Better: "lower", Samples: len(allocs)})
	o.add(named{Name: "study_peak_rss_mb", Value: rss, Unit: unitMB, Better: "lower", Samples: len(peaks)})
	return o, nil
}

// layerClock accumulates wall time per layer metric.
type layerClock map[string]time.Duration

// time runs f and charges its wall time to the named layer.
func (lc layerClock) time(name string, f func()) {
	start := time.Now()
	f()
	lc[name] += time.Since(start)
}

// traceStudy replays the study one layer at a time at Workers=1,
// timing each layer's public entry points from outside, in the order
// and with the inputs core uses. The replay's total is compared with
// an untimed core.Run at Workers=1 for the overhead; report.render_s
// is timed on that run's result.
func traceStudy(cfg config, o *outcome) (overheadPct float64, err error) {
	sc := cfg.Study
	lc := layerClock{}
	var cardinalities, candidates, pairs int
	reg := obs.NewRegistry()
	var slowest time.Duration

	runtime.GC()
	replayStart := time.Now()
	for i, p := range gen.Profiles() {
		portalStart := time.Now()
		seed := sc.Seed
		var c *gen.Corpus
		lc.time("gen.generate_s", func() { c = gen.Generate(p, sc.Scale, seed+int64(i)) })
		metas := c.TableMetas()
		tables := c.Tables()
		fdTables := fdSubset(metas)

		lc.time("table.profile_s", func() {
			for _, t := range tables {
				for col := 0; col < t.NumCols(); col++ {
					t.Profile(col)
				}
			}
		})
		lc.time("table.canon_s", func() {
			for _, t := range fdTables {
				for col := 0; col < t.NumCols(); col++ {
					t.CanonCodes(col)
				}
			}
		})
		withFD := make([]bool, len(fdTables))
		lc.time("fd.discover_s", func() {
			for j, t := range fdTables {
				fds, cost := fd.DiscoverCost(t, fd.MaxLHS)
				withFD[j] = len(fds) > 0
				cardinalities += cost.Cardinalities
			}
		})
		lc.time("normalize.decompose_s", func() {
			for j, t := range fdTables {
				if withFD[j] {
					normalize.Decompose(t, fd.MaxLHS, rand.New(rand.NewSource(sectionSeed(seed, 1)+int64(j))))
				}
			}
		})
		lc.time("keys.min_key_s", func() {
			for _, t := range fdTables {
				keys.MinCandidateKeySize(t, keys.MaxCandidateKeySize)
			}
		})
		var ja *join.Analysis
		lc.time("join.find_s", func() {
			ja = join.Find(tables, join.Options{Workers: 1})
			join.Find(tables, join.Options{MinJaccard: 0.7, Workers: 1})
		})
		candidates += ja.Candidates
		pairs += len(ja.Pairs)
		oracle := gen.Truth(c)
		lc.time("classify.label_s", func() {
			rng := rand.New(rand.NewSource(sectionSeed(seed, 2)))
			samples := classify.SampleJoinPairs(tables, ja.Pairs, oracle, classify.SampleOptions{}, rng)
			classify.Overall(samples)
			classify.ByDatasetLocality(samples)
			classify.ByKeyCombo(samples)
			classify.ByTypeGroup(samples)
			classify.BySizeBucket(samples)
			classify.Predictor{}.Evaluate(tables, samples)
			classify.BaselineOverlapOnly{}.Evaluate(tables, samples)
		})
		var ua *union.Analysis
		lc.time("union.find_s", func() {
			ua = union.Find(tables)
			union.FindFuzzy(tables, union.FuzzyOptions{})
		})
		lc.time("classify.label_s", func() {
			rng := rand.New(rand.NewSource(sectionSeed(seed, 3)))
			classify.UnionLabelDist(classify.SampleUnionPairs(ua, oracle, 25, rng))
		})
		var funnel profile.FunnelCounts
		var fetchErr error
		lc.time("ckan.funnel_s", func() {
			srv := httptest.NewServer(ckan.NewServer(c.ServablePortal(seed)))
			defer srv.Close()
			client := ckan.NewClient(srv.URL)
			client.Workers = 1
			client.Seed = seed
			client.Metrics = reg
			var st ckan.FunnelStats
			_, st, fetchErr = client.FetchAll()
			funnel = profile.FunnelCounts{Datasets: st.Datasets, Tables: st.Tables, Downloadable: st.Downloadable, Readable: st.Readable}
		})
		if fetchErr != nil {
			return 0, fmt.Errorf("study replay: funnel for %s: %w", p.Name, fetchErr)
		}
		lc.time("profile.stats_s", func() {
			pc := profileCorpus(c.PortalID(), metas)
			pc.Funnel = funnel
			profile.Sizes(pc, true)
			profile.SizePercentiles(pc, []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
			profile.Growth(pc)
			profile.TableSizes(pc)
			profile.Nulls(pc)
			profile.Metadata(pc, 100)
			profile.Uniqueness(pc)
		})
		lc.time("ind.discover_s", func() {
			ind.ForeignKeyCandidates(tables, ind.Find(tables, ind.Options{}))
		})
		lc.time("fd.discover_s", func() {
			n := 0
			for _, t := range fdTables {
				for _, f := range fd.Discover(t, fd.MaxLHS) {
					if n >= 200 {
						return
					}
					fd.Plausibility(t, f)
					n++
				}
			}
		})
		if d := time.Since(portalStart); d > slowest {
			slowest = d
		}
	}
	replay := time.Since(replayStart)

	runtime.GC()
	baseStart := time.Now()
	res := core.Run(gen.Profiles(), studyOptions(sc, sc.Seed, 1))
	base := time.Since(baseStart)
	lc.time("report.render_s", func() { checkReport(o, sc, res, sc.Seed) })
	o.Attempted += 2

	requests := counterSum(reg.Snapshot(), "ogdp_fetch_requests_total")
	for name, d := range lc {
		o.set(name, d.Seconds(), unitS)
	}
	o.set("study.slowest_portal_s", slowest.Seconds(), unitS)
	o.set("fd.cardinalities", float64(cardinalities), unitCount)
	o.set("join.candidates", float64(candidates), unitCount)
	o.set("join.pairs", float64(pairs), unitCount)
	o.set("join.useful_ratio", float64(pairs)/float64(max(candidates, 1)), unitRatio)
	o.set("ckan.requests", requests, unitCount)
	o.add(named{Name: "study.replay_s", Value: replay.Seconds(), Unit: unitS})
	o.add(named{Name: "study.untraced_workers1_s", Value: base.Seconds(), Unit: unitS})
	return 100 * (replay.Seconds() - base.Seconds()) / base.Seconds(), nil
}

// sectionSeed mirrors core's per-section rng derivation, so the replay
// draws the same decomposition and sampling choices as core.Run.
func sectionSeed(seed, salt int64) int64 {
	return seed*7919 + salt*1000003
}

// fdSubset mirrors core's FD-analysis subset: 10 ≤ rows ≤ 10000 and
// 5 ≤ cols ≤ 20.
func fdSubset(metas []corpus.TableMeta) []*table.Table {
	var out []*table.Table
	for _, m := range metas {
		t := m.Table
		if t.NumRows() < 10 || t.NumRows() > 10000 || t.NumCols() < 5 || t.NumCols() > 20 {
			continue
		}
		out = append(out, t)
	}
	return out
}

// profileCorpus mirrors core's §3 input.
func profileCorpus(portal string, metas []corpus.TableMeta) *profile.Corpus {
	pc := &profile.Corpus{Portal: portal}
	for _, m := range metas {
		pc.Tables = append(pc.Tables, profile.TableInfo{
			Table:     m.Table,
			DatasetID: m.DatasetID,
			Published: m.Published,
			RawSize:   m.RawSize,
			Metadata:  m.Metadata,
		})
	}
	return pc
}
