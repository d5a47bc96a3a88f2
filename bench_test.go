package ogdp

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations of the design choices called out in
// DESIGN.md. Each benchmark measures the analysis that produces its
// experiment and reports the experiment's headline number as a custom
// metric, so `go test -bench=. -benchmem` regenerates the whole
// evaluation.

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ogdp/internal/classify"
	"ogdp/internal/core"
	"ogdp/internal/csvio"
	"ogdp/internal/dict"
	"ogdp/internal/fd"
	"ogdp/internal/gen"
	"ogdp/internal/join"
	"ogdp/internal/keys"
	"ogdp/internal/normalize"
	"ogdp/internal/profile"
	"ogdp/internal/rank"
	"ogdp/internal/report"
	"ogdp/internal/search"
	"ogdp/internal/stats"
	"ogdp/internal/table"
	"ogdp/internal/union"
)

// benchScale keeps the full -bench=. run tractable while preserving
// every portal's shape.
const benchScale = 0.15

var (
	corporaOnce sync.Once
	corpora     []*gen.Corpus

	studyOnce sync.Once
	studyRes  *core.StudyResult
)

func benchCorpora() []*gen.Corpus {
	corporaOnce.Do(func() {
		for i, p := range gen.Profiles() {
			corpora = append(corpora, gen.Generate(p, benchScale, int64(100+i)))
		}
	})
	return corpora
}

func benchStudy() *core.StudyResult {
	studyOnce.Do(func() {
		studyRes = core.Run(gen.Profiles(), core.Options{
			Scale: benchScale, Seed: 100, Compress: true, FetchFunnel: true,
			MaxFDTables: 150,
		})
	})
	return studyRes
}

func profileCorpus(c *gen.Corpus) *profile.Corpus {
	pc := &profile.Corpus{Portal: c.PortalName}
	for _, m := range c.Metas {
		pc.Tables = append(pc.Tables, profile.TableInfo{
			Table: m.Table, DatasetID: m.Dataset, Published: m.Published,
			RawSize: m.RawSize,
		})
	}
	return pc
}

// ---- Table 1 / Figures 1-2 ----

func BenchmarkTable1PortalSizes(b *testing.B) {
	cs := benchCorpora()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cs {
			profile.Sizes(profileCorpus(c), false)
		}
	}
	b.StopTimer()
	ps := profile.Sizes(profileCorpus(cs[3]), true)
	b.ReportMetric(float64(ps.TotalBytes)/(1<<20), "US-MiB")
	b.ReportMetric(float64(ps.TotalBytes)/float64(ps.CompressedBytes), "US-compression-x")
}

func BenchmarkFigure1SizePercentiles(b *testing.B) {
	cs := benchCorpora()
	steps := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cs {
			profile.SizePercentiles(profileCorpus(c), steps)
		}
	}
	b.StopTimer()
	pts := profile.SizePercentiles(profileCorpus(cs[3]), steps)
	top := float64(pts[9].Cumulative-pts[8].Cumulative) / float64(pts[9].Cumulative)
	b.ReportMetric(top*100, "US-top-decile-%")
}

func BenchmarkFigure2UKGrowth(b *testing.B) {
	uk := benchCorpora()[2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profile.Growth(profileCorpus(uk))
	}
	b.StopTimer()
	g := profile.Growth(profileCorpus(uk))
	b.ReportMetric(float64(len(g)), "years")
}

// ---- Table 2 / Figure 3 ----

func BenchmarkTable2TableSizes(b *testing.B) {
	cs := benchCorpora()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cs {
			profile.TableSizes(profileCorpus(c))
		}
	}
	b.StopTimer()
	st := profile.TableSizes(profileCorpus(cs[3]))
	b.ReportMetric(st.MedianRows, "US-median-rows")
}

func BenchmarkFigure3SizeDistributions(b *testing.B) {
	cs := benchCorpora()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cs {
			var rows []float64
			for _, m := range c.Metas {
				rows = append(rows, float64(m.Table.NumRows()))
			}
			stats.Histogram(rows, []float64{0, 10, 100, 1000, 10000, 1e9})
		}
	}
}

// ---- Figure 4 / Table 3 ----

func BenchmarkFigure4NullRatios(b *testing.B) {
	cs := benchCorpora()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cs {
			profile.Nulls(profileCorpus(c))
		}
	}
	b.StopTimer()
	ns := profile.Nulls(profileCorpus(cs[1]))
	b.ReportMetric(ns.FracColsWithNulls*100, "CA-null-cols-%")
}

func BenchmarkTable3Metadata(b *testing.B) {
	res := benchStudy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range res.Portals {
			_ = p.Metadata
		}
		report.Table3(io.Discard, res)
	}
	b.StopTimer()
	b.ReportMetric(res.Portals[0].Metadata.Structured*100, "SG-structured-%")
}

// ---- Figure 5 / Table 4 ----

func BenchmarkFigure5Uniqueness(b *testing.B) {
	cs := benchCorpora()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profile.Uniqueness(profileCorpus(cs[3]))
	}
	b.StopTimer()
	us := profile.Uniqueness(profileCorpus(cs[3]))
	b.ReportMetric(us["all"].MedianUnique, "US-median-uniques")
}

func BenchmarkTable4UniquenessByType(b *testing.B) {
	cs := benchCorpora()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cs {
			profile.Uniqueness(profileCorpus(c))
		}
	}
	b.StopTimer()
	us := profile.Uniqueness(profileCorpus(cs[3]))
	b.ReportMetric(us["text"].MedianUnique, "US-text-median")
	b.ReportMetric(us["number"].MedianUnique, "US-number-median")
}

// ---- Figure 6 / Table 5 / Figure 7 ----

func fdSubset(c *gen.Corpus, max int) []*table.Table {
	var out []*table.Table
	for _, m := range c.Metas {
		t := m.Table
		if t.NumRows() < 10 || t.NumRows() > 10000 || t.NumCols() < 5 || t.NumCols() > 20 {
			continue
		}
		out = append(out, t)
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

func BenchmarkFigure6CandidateKeys(b *testing.B) {
	sub := fdSubset(benchCorpora()[1], 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keys.SizeDistribution(sub, keys.MaxCandidateKeySize)
	}
	b.StopTimer()
	dist := keys.SizeDistribution(sub, keys.MaxCandidateKeySize)
	total := 0
	for _, n := range dist {
		total += n
	}
	b.ReportMetric(float64(total-dist[1])/float64(total)*100, "CA-no-single-key-%")
}

func BenchmarkTable5FDStats(b *testing.B) {
	sub := fdSubset(benchCorpora()[1], 40)
	b.ResetTimer()
	withFD := 0
	for i := 0; i < b.N; i++ {
		withFD = 0
		for _, t := range sub {
			if fd.HasNontrivialFD(t, fd.MaxLHS) {
				withFD++
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(withFD)/float64(len(sub))*100, "CA-with-FD-%")
}

func BenchmarkFigure7Decomposition(b *testing.B) {
	sub := fdSubset(benchCorpora()[1], 25)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	var avg float64
	for i := 0; i < b.N; i++ {
		total, n := 0, 0
		for _, t := range sub {
			res := normalize.Decompose(t, fd.MaxLHS, rng)
			if !res.InBCNF() {
				total += len(res.Parts)
				n++
			}
		}
		if n > 0 {
			avg = float64(total) / float64(n)
		}
	}
	b.StopTimer()
	b.ReportMetric(avg, "CA-avg-subtables")
}

// ---- Table 6 / Figure 8 ----

func BenchmarkTable6Joinability(b *testing.B) {
	cs := benchCorpora()
	b.ResetTimer()
	var pairs int
	for i := 0; i < b.N; i++ {
		pairs = 0
		for _, c := range cs {
			pairs += len(join.Find(c.Tables(), join.Options{}).Pairs)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(pairs), "total-pairs")
}

func BenchmarkFigure8ExpansionRatios(b *testing.B) {
	us := benchCorpora()[3]
	ja := join.Find(us.Tables(), join.Options{})
	var exps []float64
	for _, p := range ja.Pairs {
		exps = append(exps, p.Expansion)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.LetterValueSummary(exps, 5)
	}
	b.StopTimer()
	b.ReportMetric(stats.Median(exps), "US-median-expansion")
}

// ---- Tables 7-10 ----

func labelSamples(b *testing.B, c *gen.Corpus) []classify.SampledPair {
	b.Helper()
	ja := join.Find(c.Tables(), join.Options{})
	return classify.SampleJoinPairs(c.Tables(), ja.Pairs, gen.Truth(c),
		classify.SampleOptions{PerCell: 17}, rand.New(rand.NewSource(9)))
}

func BenchmarkTable7Labels(b *testing.B) {
	ca := benchCorpora()[1]
	samples := labelSamples(b, ca)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		classify.Overall(samples)
	}
	b.StopTimer()
	b.ReportMetric(classify.Overall(samples).Accidental()*100, "CA-accidental-%")
}

func BenchmarkTable8InterIntra(b *testing.B) {
	ca := benchCorpora()[1]
	samples := labelSamples(b, ca)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		classify.ByDatasetLocality(samples)
	}
	b.StopTimer()
	loc := classify.ByDatasetLocality(samples)
	b.ReportMetric(loc[1].Useful*100, "CA-intra-useful-%")
	b.ReportMetric(loc[0].Useful*100, "CA-inter-useful-%")
}

func BenchmarkTable9KeyCombos(b *testing.B) {
	uk := benchCorpora()[2]
	samples := labelSamples(b, uk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		classify.ByKeyCombo(samples)
	}
	b.StopTimer()
	combos := classify.ByKeyCombo(samples)
	b.ReportMetric(combos[0].Useful*100, "UK-keykey-useful-%")
	b.ReportMetric(combos[2].Useful*100, "UK-nonkey-useful-%")
}

func BenchmarkTable10DataTypes(b *testing.B) {
	us := benchCorpora()[3]
	samples := labelSamples(b, us)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		classify.ByTypeGroup(samples)
	}
	b.StopTimer()
	for _, d := range classify.ByTypeGroup(samples) {
		if d.Group == "incremental integer" && d.N > 0 {
			b.ReportMetric(d.Useful*100, "US-incint-useful-%")
		}
	}
}

// ---- Table 11 / §6 ----

func BenchmarkTable11Unionability(b *testing.B) {
	cs := benchCorpora()
	b.ResetTimer()
	var unionable int
	for i := 0; i < b.N; i++ {
		unionable = 0
		for _, c := range cs {
			unionable += union.Find(c.Tables()).UnionableTables()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(unionable), "unionable-tables")
}

func BenchmarkUnionLabels(b *testing.B) {
	us := benchCorpora()[3]
	ua := union.Find(us.Tables())
	oracle := gen.Truth(us)
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	var dist classify.LabelDist
	for i := 0; i < b.N; i++ {
		samples := classify.SampleUnionPairs(ua, oracle, 25, rng)
		dist = classify.UnionLabelDist(samples)
	}
	b.StopTimer()
	b.ReportMetric(dist.Useful*100, "US-union-useful-%")
}

// ---- Ablations (DESIGN.md §6) ----

func BenchmarkAblationFDAlgorithms(b *testing.B) {
	sub := fdSubset(benchCorpora()[1], 15)
	b.Run("FUN", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, t := range sub {
				fd.Discover(t, fd.MaxLHS)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, t := range sub {
				fd.DiscoverNaive(t, fd.MaxLHS)
			}
		}
	})
	b.Run("tane", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, t := range sub {
				fd.DiscoverTANE(t, fd.MaxLHS)
			}
		}
	})
}

func BenchmarkAblationJaccardThreshold(b *testing.B) {
	ca := benchCorpora()[1]
	tables := ca.Tables()
	for _, theta := range []float64{0.9, 0.7} {
		theta := theta
		name := "theta-0.9"
		if theta == 0.7 {
			name = "theta-0.7"
		}
		b.Run(name, func(b *testing.B) {
			var pairs int
			for i := 0; i < b.N; i++ {
				pairs = len(join.Find(tables, join.Options{MinJaccard: theta}).Pairs)
			}
			b.ReportMetric(float64(pairs), "pairs")
		})
	}
}

func BenchmarkAblationMinUniques(b *testing.B) {
	ca := benchCorpora()[1]
	tables := ca.Tables()
	for _, mu := range []int{10, -1} {
		mu := mu
		name := "min-uniques-10"
		if mu < 0 {
			name = "min-uniques-off"
		}
		b.Run(name, func(b *testing.B) {
			var pairs int
			for i := 0; i < b.N; i++ {
				pairs = len(join.Find(tables, join.Options{MinUnique: mu}).Pairs)
			}
			b.ReportMetric(float64(pairs), "pairs")
		})
	}
}

func BenchmarkAblationHeaderScan(b *testing.B) {
	// A preamble-heavy CSV (80 annotation rows, as in real statistical
	// releases): shallow scans miss the header.
	var sb strings.Builder
	for i := 0; i < 80; i++ {
		sb.WriteString("Annual Report notes,,\n")
	}
	sb.WriteString("id,name,value\n")
	for i := 0; i < 2000; i++ {
		sb.WriteString("1,x,2\n")
	}
	data := sb.String()
	for _, depth := range []int{500, 50} {
		depth := depth
		name := "scan-500"
		if depth == 50 {
			name = "scan-50"
		}
		b.Run(name, func(b *testing.B) {
			ok := 0
			for i := 0; i < b.N; i++ {
				if _, err := csvio.ReadWith("t.csv", strings.NewReader(data), csvio.Options{HeaderScanRows: depth}); err == nil {
					ok++
				}
			}
			b.ReportMetric(float64(ok)/float64(b.N), "parse-ok")
		})
	}
}

func BenchmarkAblationJoinIndex(b *testing.B) {
	sg := benchCorpora()[0]
	tables := sg.Tables()
	b.Run("prefix-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			join.Find(tables, join.Options{})
		}
	})
	b.Run("all-pairs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			join.FindAllPairs(tables, join.Options{})
		}
	})
}

// ---- Extensions ----

func BenchmarkExtensionRankJoins(b *testing.B) {
	ca := benchCorpora()[1]
	tables := ca.Tables()
	pairs := join.Find(tables, join.Options{}).Pairs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rank.RankJoins(tables, pairs, rank.JoinWeights{})
	}
	b.StopTimer()
	b.ReportMetric(float64(len(pairs)), "pairs-ranked")
}

func BenchmarkExtensionDictExtract(b *testing.B) {
	ca := benchCorpora()[1]
	var docs []string
	for _, ds := range ca.Datasets {
		if doc, ok := gen.MetadataDoc(ca, ds.ID, 77); ok {
			docs = append(docs, doc)
		}
	}
	if len(docs) == 0 {
		b.Skip("no documented datasets")
	}
	b.ResetTimer()
	entries := 0
	for i := 0; i < b.N; i++ {
		entries = len(dict.Extract(docs[i%len(docs)]).Entries)
	}
	b.StopTimer()
	b.ReportMetric(float64(entries), "entries")
}

func BenchmarkExtensionApproximateFDs(b *testing.B) {
	sub := fdSubset(benchCorpora()[1], 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range sub {
			fd.DiscoverApproximate(t, 2, 0.02)
		}
	}
}

func BenchmarkExtensionTopKSearch(b *testing.B) {
	us := benchCorpora()[3]
	tables := us.Tables()
	eng := search.New(tables, search.Options{})
	q := tables[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.TopKJoinable(q, 0, 10, 0)
	}
	b.StopTimer()
	b.ReportMetric(float64(eng.NumIndexed()), "indexed-columns")
}

func BenchmarkExtension3NFSynthesis(b *testing.B) {
	sub := fdSubset(benchCorpora()[1], 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range sub {
			normalize.Synthesize3NF(t, fd.MaxLHS)
		}
	}
}

// BenchmarkAblationExactVsFuzzyUnion contrasts the paper's exact
// schema identity with the relaxed name-similarity matching of the
// cited systems, reporting how many additional tables the relaxation
// connects.
func BenchmarkAblationExactVsFuzzyUnion(b *testing.B) {
	ca := benchCorpora()[1]
	tables := ca.Tables()
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			union.Find(tables)
		}
	})
	b.Run("fuzzy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			union.FindFuzzy(tables, union.FuzzyOptions{})
		}
	})
	b.Run("gain", func(b *testing.B) {
		var exact, fuzzy int
		for i := 0; i < b.N; i++ {
			exact = union.Find(tables).UnionableTables()
			inFuzzy := map[int]bool{}
			for _, p := range union.FindFuzzy(tables, union.FuzzyOptions{}) {
				inFuzzy[p.T1] = true
				inFuzzy[p.T2] = true
			}
			fuzzy = len(inFuzzy)
		}
		b.ReportMetric(float64(exact), "exact-unionable")
		b.ReportMetric(float64(fuzzy), "fuzzy-unionable")
	})
}

// ---- End-to-end ----

// BenchmarkStudyParallel measures the full four-portal study at the
// harness default scale across worker counts; workers-1 is the
// sequential baseline the speedups in EXPERIMENTS.md are quoted
// against. It also holds the determinism contract: every later worker
// count must produce the workers-1 StudyResult, once Options (which
// records the worker count) and each portal's generated corpus (deeply
// equal, but built per run) are set aside. CI's bench-storage job runs
// it with -benchtime=1x -count 2, times the second pass, and fails when
// the best speedup misses 0.75 × min(4, nproc), or 0.85 on one core.
func BenchmarkStudyParallel(b *testing.B) {
	counts := []int{1, 2, 4, 8}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 && p != 4 && p != 8 {
		counts = append(counts, p)
	}
	var baseline *core.StudyResult
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			var sr *core.StudyResult
			for i := 0; i < b.N; i++ {
				sr = core.Run(gen.Profiles(), core.Options{
					Scale: benchScale, Seed: 100, MaxFDTables: 150,
					SamplePerCell: 8, UnionSamples: 10, Workers: w,
				})
			}
			b.StopTimer()
			sr.Options = core.Options{}
			for i := range sr.Portals {
				sr.Portals[i].Corpus = nil
			}
			switch {
			case w == 1:
				baseline = sr
			case baseline != nil && !reflect.DeepEqual(sr, baseline):
				b.Fatalf("workers-%d study result differs from workers-1", w)
			}
		})
	}
}

func BenchmarkFullStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.Run(gen.Profiles(), core.Options{
			Scale: 0.05, Seed: int64(i + 1), MaxFDTables: 20,
			SamplePerCell: 3, UnionSamples: 5,
		})
	}
}

func BenchmarkReportRendering(b *testing.B) {
	res := benchStudy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.All(io.Discard, res)
	}
}
