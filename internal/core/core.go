// Package core orchestrates the full OGDP study: it generates (or
// accepts) a corpus per portal and runs every analysis of the paper —
// acquisition funnel, size/null/metadata profiling, uniqueness and
// candidate keys, FD discovery and BCNF decomposition, joinability
// with expansion ratios, stratified usefulness labeling, and
// unionability — producing one result struct per table/figure of the
// evaluation.
//
// # Concurrency and determinism
//
// The study parallelizes on four levels, all bounded by
// Options.Workers: portals run concurrently, the §3–§6 sections of one
// portal overlap, FD/key discovery fans out per table, and the join
// search shards candidate verification. The result is byte-identical
// for every worker count: each parallel unit draws from its own rng
// stream derived from (Options.Seed, section salt, unit index) — never
// from a shared *rand.Rand — and merged outputs are folded back in
// sequential order (or sorted into a canonical order) before being
// returned.
package core

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"sort"
	"time"

	"ogdp/internal/ckan"
	"ogdp/internal/classify"
	"ogdp/internal/corpus"
	"ogdp/internal/fd"
	"ogdp/internal/gen"
	"ogdp/internal/ind"
	"ogdp/internal/join"
	"ogdp/internal/keys"
	"ogdp/internal/normalize"
	"ogdp/internal/obs"
	"ogdp/internal/parallel"
	"ogdp/internal/profile"
	"ogdp/internal/stats"
	"ogdp/internal/table"
	"ogdp/internal/union"
)

// Options configures a study run.
type Options struct {
	// Scale multiplies the calibrated corpus sizes (1.0 = full
	// calibrated size). Defaults to 1.0.
	Scale float64
	// Seed drives all randomness. Defaults to 1.
	Seed int64
	// FetchFunnel, when true, serializes the corpus into a CKAN portal,
	// serves it over HTTP, and measures the downloadable/readable
	// funnel with the real client (Table 1). Costs time and memory.
	FetchFunnel bool
	// Compress, when true, measures gzip-compressed portal sizes
	// (Table 1).
	Compress bool
	// MaxFDTables caps how many tables enter the FD/BCNF analysis
	// (0 = the full eligible subset, the paper's setting).
	MaxFDTables int
	// SamplePerCell is the per-(bucket × key combo) quota of the
	// labeling sample; 0 uses the paper's ~17.
	SamplePerCell int
	// UnionSamples is the number of union pairs labeled per portal;
	// 0 uses the paper's 25.
	UnionSamples int
	// Sensitivity, when true, repeats the joinability analysis at the
	// paper's supplementary Jaccard threshold of 0.7 to verify the
	// expansion-ratio picture is not an artifact of the 0.9 cut.
	Sensitivity bool
	// Extensions, when true, additionally runs the beyond-the-paper
	// analyses: inclusion-dependency (foreign key) discovery, fuzzy
	// unionability gain, and FD plausibility scoring.
	Extensions bool
	// Workers bounds the goroutines of every parallel layer of the
	// study (portal fan-out, section overlap, per-table FD/key
	// discovery, join-candidate verification). 0 selects
	// runtime.GOMAXPROCS(0); 1 reproduces the sequential run exactly.
	// Results are byte-identical for every value — see the determinism
	// contract in the package comment.
	Workers int

	// Metrics, when non-nil, receives the study's counters and
	// histograms, labeled per portal. Everything recorded here is a
	// pure function of (profiles, Scale, Seed), so snapshots are
	// byte-identical for every Workers value.
	Metrics *obs.Registry
	// Trace, when non-nil, gains one child span per portal with the
	// section tree beneath it. Spans carry task/item/byte counts; wall
	// time appears only when the trace was built with a clock.
	Trace *obs.Span
	// Clock, when non-nil, is forwarded to the fetch client so the
	// funnel measurement records per-request wall time. Study code
	// itself never reads a clock; the CLIs inject time.Now only under
	// -trace.
	Clock func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.UnionSamples == 0 {
		o.UnionSamples = 25
	}
	return o
}

// FDStats is Table 5 for one portal.
type FDStats struct {
	Tables          int
	Columns         int
	AvgCols         float64
	WithFD          int
	WithFDPct       float64
	WithSimpleFD    int
	WithSimpleFDPct float64
	// AvgDecomposed is the mean number of sub-tables produced by BCNF
	// decomposition of tables that were not in BCNF.
	AvgDecomposed float64
	// AvgPartitionCols is the mean column count of the decomposition's
	// sub-tables.
	AvgPartitionCols float64
	// AvgUniquenessGain is the mean ratio of uniqueness scores for
	// unrepeated columns after vs before decomposition.
	AvgUniquenessGain float64
	// DecompositionDist[k] counts tables decomposed into k sub-tables
	// (k = 1 means the table was already in BCNF). (Figure 7)
	DecompositionDist map[int]int
}

// JoinStats is Table 6 for one portal.
type JoinStats struct {
	Pairs             int
	Tables            int
	JoinableTables    int
	JoinableTablesPct float64
	MedianTableDegree float64
	MaxTableDegree    int
	Columns           int
	JoinableCols      int
	JoinableColsPct   float64
	KeyJoinable       int
	KeyJoinablePct    float64
	NonkeyJoinable    int
	NonkeyJoinablePct float64
	MedianColDegree   float64
	MaxColDegree      int
	// Expansions holds every pair's expansion ratio (Figure 8).
	Expansions []float64
	// ExpansionLV is the letter-value summary of Figure 8.
	ExpansionLV stats.LetterValues
}

// UnionStats is Table 11 for one portal.
type UnionStats struct {
	Tables              int
	UnionableTables     int
	UnionableTablesPct  float64
	MedianDegree        float64
	MaxDegree           int
	UniqueSchemas       int
	AvgTablesPerSchema  float64
	UnionableSchemas    int
	UnionableSchemasPct float64
	SingleDatasetGroups int
	SingleDatasetPct    float64
}

// ExtensionStats holds the beyond-the-paper analyses of one portal.
type ExtensionStats struct {
	// INDs is the number of exact unary inclusion dependencies.
	INDs int
	// ForeignKeyCandidates is the number of key-referencing INDs whose
	// dependent is a non-key column.
	ForeignKeyCandidates int
	// PlantedFKRecovered is the fraction of fk candidates matching a
	// generator-planted entity relationship.
	PlantedFKRecovered float64
	// FuzzyUnionTables counts tables connected by approximate schema
	// matching; ExactUnionTables the paper's exact-identity count.
	FuzzyUnionTables int
	ExactUnionTables int
	// MeanFDPlausibility averages the plausibility score over a sample
	// of discovered FDs.
	MeanFDPlausibility float64
}

// LabelResults aggregates the §5.3 usefulness study for one portal.
type LabelResults struct {
	Samples  int
	Overall  classify.LabelDist    // Table 7
	Locality [2]classify.LabelDist // Table 8: inter, intra
	Combos   [3]classify.LabelDist // Table 9
	Types    []classify.LabelDist  // Table 10
	Buckets  [3]classify.LabelDist // supplementary size analysis
	// Predictor and Baseline evaluate the paper-recommended filters
	// against overlap-only suggestions on the same sample.
	Predictor classify.Evaluation
	Baseline  classify.Evaluation
}

// PortalResult bundles every experiment for one portal.
type PortalResult struct {
	Portal string
	// Corpus is the analyzed corpus. Generated studies store the
	// *gen.Corpus here; RunPortal preserves whatever Source it was
	// given (e.g. a disk-loaded corpus).
	Corpus corpus.Source

	Sizes           profile.PortalSizes      // Table 1
	SizePercentiles []profile.SizePercentile // Figure 1
	Growth          []profile.GrowthPoint    // Figure 2
	TableSizes      profile.TableSizeStats   // Table 2
	ColsHist        []stats.Bucket           // Figure 3 (columns)
	RowsHist        []stats.Bucket           // Figure 3 (rows)
	Nulls           profile.NullStats        // Figure 4
	Metadata        profile.MetadataStats    // Table 3
	Uniqueness      map[string]profile.UniquenessStats

	KeySizeDist []int // Figure 6: index 0 = no key ≤ 3, else min key size

	FD FDStats // Table 5 + Figure 7

	Join JoinStats // Table 6 + Figure 8
	// JoinAt07 repeats Table 6/Figure 8 at Jaccard ≥ 0.7 (the paper's
	// supplementary sensitivity check); nil unless Options.Sensitivity.
	JoinAt07 *JoinStats
	Labels   LabelResults // Tables 7–10

	Union       UnionStats         // Table 11
	UnionLabels classify.LabelDist // §6 labeling

	// Ext holds the beyond-the-paper analyses; nil unless
	// Options.Extensions.
	Ext *ExtensionStats
}

// StudyResult is the full four-portal study.
type StudyResult struct {
	Options Options
	Portals []PortalResult
}

// Section seed salts. Each §-section of the study draws from its own
// rng stream derived from (Options.Seed, salt), so sections can
// reorder or run concurrently without perturbing one another's draws
// (previously one *rand.Rand was threaded through FD decomposition,
// join-pair sampling, and union sampling in sequence, so any change in
// an earlier section's consumption shifted every later draw).
const (
	seedSaltFD = 1 + iota
	seedSaltJoinSample
	seedSaltUnionSample
)

// sectionSeed derives a section's rng seed from the study seed; add a
// unit index for per-table streams inside a section. The multipliers
// are primes so distinct (seed, salt) pairs map to distinct streams.
func sectionSeed(seed int64, salt int64) int64 {
	return seed*7919 + salt*1000003
}

// Run executes the study for the given portal profiles (use
// gen.Profiles() for the paper's four). Portals are generated and
// analyzed concurrently when opts.Workers allows — and, because each
// portal's sections fan out through the same bounded pool layers, the
// sections of different portals overlap too. Each portal writes only
// its own result slot, so the output order always matches the profile
// list.
func Run(profiles []gen.PortalProfile, opts Options) *StudyResult {
	opts = opts.withDefaults()
	res := &StudyResult{Options: opts, Portals: make([]PortalResult, len(profiles))}
	// Portal spans are created sequentially before the fan-out, so the
	// trace tree's child order matches the profile list for every
	// worker count.
	spans := make([]*obs.Span, len(profiles))
	for i, p := range profiles {
		spans[i] = opts.Trace.Child("portal:" + p.Name)
	}
	// Study fan-outs run under context.Background() and are never
	// canceled, so ForEach's only error source (its context) cannot
	// fire; parallel.Must turns that impossibility into a loud panic
	// instead of a silently dropped error. Worker panics propagate
	// separately as *parallel.WorkerPanic.
	parallel.Must(parallel.ForEach(parallel.WithPool(context.Background(), "portals"), len(profiles), opts.Workers, func(i int) {
		c := gen.Generate(profiles[i], opts.Scale, opts.Seed+int64(i))
		res.Portals[i] = runPortal(c, opts, spans[i])
	}))
	return res
}

// colUnit is one independent precompute work unit: one column of one
// table, optionally including its canonical code stream.
type colUnit struct {
	t     *table.Table
	c     int
	canon bool
}

// precomputeUnits flattens the corpus into per-(table, column) work
// units for the precompute fan-out. Columns of tables in the §4 FD
// subset additionally materialize their canonical code streams (the
// representation the FD/key lattice searches and partitions consume);
// canon streams of other tables are never read, so building them
// would only cost time and memory.
//
// Units are ordered largest-table-first so a skewed corpus cannot
// stretch the fan-out's makespan by scheduling its giant tables last;
// the stable sort keeps (table, column) order among equal sizes, so
// the unit list is deterministic. Scheduling order never affects
// results — each unit writes only its own column's caches.
func precomputeUnits(tables []*table.Table, fdTables []*table.Table) []colUnit {
	canonFor := make(map[*table.Table]bool, len(fdTables))
	for _, t := range fdTables {
		canonFor[t] = true
	}
	total := 0
	for _, t := range tables {
		total += t.NumCols()
	}
	units := make([]colUnit, 0, total)
	for _, t := range tables {
		canon := canonFor[t]
		for c := 0; c < t.NumCols(); c++ {
			units = append(units, colUnit{t: t, c: c, canon: canon})
		}
	}
	sort.SliceStable(units, func(i, j int) bool {
		return units[i].t.NumRows() > units[j].t.NumRows()
	})
	return units
}

// RunPortal executes every analysis over one corpus. The four sections
// are mutually independent given their own rng streams (see the
// section salts above), so they overlap when opts.Workers allows.
//
// Any corpus.Source works: generated corpora additionally provide the
// §5.3 labeling oracle and the funnel's servable portal, which core
// discovers by type assertion; a corpus without them still runs every
// structural analysis (labels default to zero, the funnel is skipped).
func RunPortal(src corpus.Source, opts Options) PortalResult {
	opts = opts.withDefaults()
	return runPortal(src, opts, opts.Trace.Child("portal:"+src.PortalID()))
}

// servablePortal is the optional capability behind the Table 1 funnel:
// a corpus that can serialize itself into a CKAN portal (with its
// profile's broken-resource rates) gets measured over live HTTP.
type servablePortal interface {
	ServablePortal(seed int64) *ckan.Portal
}

func runPortal(src corpus.Source, opts Options, span *obs.Span) PortalResult {
	pr := PortalResult{Portal: src.PortalID(), Corpus: src}
	bg := context.Background()

	metas := src.TableMetas()
	datasets := src.DatasetMetas()
	tables := make([]*table.Table, len(metas))
	for i, m := range metas {
		tables[i] = m.Table
	}
	span.AddTasks(len(tables))
	recordCorpusMetrics(pr.Portal, metas, datasets, opts.Metrics)

	// Precompute every per-column cache up front as one flat list of
	// independent (table, column) work units: this is the bulk of §3's
	// CPU, and it leaves the sections below reading immutable,
	// lock-free caches instead of racing to fill them. Flat granularity
	// matters — the old per-table fan-out (with a sequential inner
	// column loop) serialized behind the corpus's few giant tables.
	fdTables := fdSubset(metas, opts.MaxFDTables)
	cacheSpan := span.Child("precompute")
	units := precomputeUnits(tables, fdTables)
	cacheSpan.AddTasks(len(units))
	parallel.Must(parallel.ForEach(parallel.WithPool(bg, "precompute"), len(units), opts.Workers, func(i int) {
		u := units[i]
		u.t.Profile(u.c)
		if u.canon {
			u.t.CanonCodes(u.c)
		}
	}))
	cacheSpan.End()
	// The labeling oracle is a capability of generated corpora; other
	// sources run unlabeled (classify treats a nil oracle as "no
	// annotation available").
	var joinOracle classify.JoinOracle
	var unionOracle classify.UnionOracle
	if gc, ok := src.(*gen.Corpus); ok {
		o := gen.Truth(gc)
		joinOracle, unionOracle = o, o
	}

	// Section spans are created sequentially here — before the section
	// fan-out — so the rendered tree is identical for every worker
	// count even though the sections themselves overlap.
	secProfile := span.Child("profile")
	secKeys := span.Child("keys+fd")
	secJoin := span.Child("join")
	secUnion := span.Child("union")
	portalLabels := []string{"portal", pr.Portal}
	// fdPer holds the §4 per-table FD results; the extension analyses
	// read the FD lists after the section fan-out has filled it.
	fdPer := make([]tableFD, len(fdTables))
	counter := func(name, help string, n int) {
		opts.Metrics.Counter(name, help, portalLabels...).Add(int64(n))
	}

	sections := []func(){
		func() { // ---- profiling (§3) ----
			pc := profileCorpus(pr.Portal, metas)
			if opts.FetchFunnel {
				pc.Funnel = measureFunnel(src, pr.Portal, opts, secProfile.Child("funnel"))
			}
			pr.Sizes = profile.Sizes(pc, opts.Compress)
			pr.SizePercentiles = profile.SizePercentiles(pc, []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
			pr.Growth = profile.Growth(pc)
			pr.TableSizes = profile.TableSizes(pc)
			pr.ColsHist, pr.RowsHist = sizeHistograms(metas)
			pr.Nulls = profile.Nulls(pc)
			pr.Metadata = profile.Metadata(pc, 100)
			pr.Uniqueness = profile.Uniqueness(pc)
			secProfile.AddItems(len(pc.Tables))
			secProfile.End()
		},
		func() { // ---- keys and FDs (§4) ----
			n := len(fdTables)
			secKeys.AddTasks(2 * n)
			// One flat fan-out covers both §4.1 (minimal candidate
			// keys) and §4.2 (FD discovery + BCNF decomposition):
			// units [0, n) are the per-table FD searches — the heavier
			// pass, scheduled first — and units [n, 2n) the per-table
			// key searches. Fusing the passes removes the barrier that
			// previously idled workers between them; both write only
			// index-addressed slots, so the fold is order-independent.
			keySizes := make([]int, n)
			parallel.Must(parallel.ForEach(parallel.WithPool(bg, "keys+fd"), 2*n, opts.Workers, func(i int) {
				if i < n {
					fdPer[i] = fdTableOne(fdTables[i], opts.Seed, i)
				} else {
					keySizes[i-n] = keys.MinCandidateKeySize(fdTables[i-n], keys.MaxCandidateKeySize)
				}
			}))
			pr.KeySizeDist = keys.FoldSizeDistribution(keySizes, keys.MaxCandidateKeySize)
			var cost fdCost
			pr.FD, cost = foldFD(fdPer)
			counter("ogdp_fd_tables_total", "Tables entering the FD/BCNF analysis.", len(fdTables))
			counter("ogdp_fd_discovered_total", "Minimal non-trivial FDs discovered.", cost.fds)
			counter("ogdp_fd_cardinalities_total", "Projection count-distinct evaluations performed by the FUN search.", cost.cardinalities)
			secKeys.AddItems(cost.fds)
			secKeys.End()
		},
		func() { // ---- joinability (§5) ----
			secJoin.AddTasks(len(tables))
			ja := join.Find(tables, join.Options{Workers: opts.Workers})
			pr.Join = joinStats(tables, ja)
			counter("ogdp_join_eligible_columns_total", "Columns passing the distinct-count filter of the join search.", ja.Eligible)
			counter("ogdp_join_candidates_total", "Column pairs surfaced by the prefix-filter index for exact verification.", ja.Candidates)
			counter("ogdp_join_pairs_total", "Joinable column pairs at the paper's Jaccard >= 0.9 threshold.", len(ja.Pairs))

			if opts.Sensitivity {
				ja07 := join.Find(tables, join.Options{MinJaccard: 0.7, Workers: opts.Workers})
				st := joinStats(tables, ja07)
				pr.JoinAt07 = &st
			}

			rng := rand.New(rand.NewSource(sectionSeed(opts.Seed, seedSaltJoinSample)))
			samples := classify.SampleJoinPairs(tables, ja.Pairs, joinOracle,
				classify.SampleOptions{PerCell: opts.SamplePerCell}, rng)
			pr.Labels = labelResults(tables, samples)
			secJoin.AddItems(len(ja.Pairs))
			secJoin.End()
		},
		func() { // ---- unionability (§6) ----
			ua := union.Find(tables)
			pr.Union = unionStats(len(metas), ua)
			counter("ogdp_union_groups_total", "Unionable schema groups found.", len(ua.Groups))
			rng := rand.New(rand.NewSource(sectionSeed(opts.Seed, seedSaltUnionSample)))
			unionSamples := classify.SampleUnionPairs(ua, unionOracle, opts.UnionSamples, rng)
			pr.UnionLabels = classify.UnionLabelDist(unionSamples)
			secUnion.AddItems(len(ua.Groups))
			secUnion.End()
		},
	}
	// Never canceled (see Run); Must converts the impossible context
	// error into a panic instead of dropping it.
	parallel.Must(parallel.ForEach(parallel.WithPool(bg, "sections"), len(sections), opts.Workers, func(i int) { sections[i]() }))

	if opts.Extensions {
		ext := extensionStats(src, tables, fdTables, fdPer)
		ext.ExactUnionTables = pr.Union.UnionableTables
		pr.Ext = &ext
	}

	span.End()
	return pr
}

// recordCorpusMetrics publishes the corpus shape — table/dataset
// counts and the row/column/byte distributions — for one portal. All
// values derive from the corpus itself, so they are identical for
// every worker count.
func recordCorpusMetrics(portal string, metas []corpus.TableMeta, datasets []corpus.Dataset, r *obs.Registry) {
	if r == nil {
		return
	}
	ls := []string{"portal", portal}
	r.Counter("ogdp_tables_total", "Tables in the analyzed corpus.", ls...).Add(int64(len(metas)))
	r.Gauge("ogdp_corpus_datasets", "Datasets in the analyzed corpus.", ls...).Set(float64(len(datasets)))
	rows := r.Histogram("ogdp_table_rows", "Row count per corpus table.", obs.CountBuckets, ls...)
	cols := r.Histogram("ogdp_table_cols", "Column count per corpus table.", obs.CountBuckets, ls...)
	bytes := r.Histogram("ogdp_table_bytes", "Serialized CSV size per corpus table, in bytes.", obs.SizeBuckets, ls...)
	cells := r.Counter("ogdp_cells_total", "Cells (rows x columns) across the corpus.", ls...)
	padded := r.Counter("ogdp_cells_padded_total", "Cells synthesized by padding short CSV rows to the table width.", ls...)
	truncated := r.Counter("ogdp_cells_truncated_total", "Cells dropped by truncating long CSV rows to the table width.", ls...)
	for _, m := range metas {
		rows.Observe(float64(m.Table.NumRows()))
		cols.Observe(float64(m.Table.NumCols()))
		bytes.Observe(float64(m.RawSize))
		cells.Add(int64(m.Table.NumRows()) * int64(m.Table.NumCols()))
		padded.Add(int64(m.Table.Ragged.Padded))
		truncated.Add(int64(m.Table.Ragged.Truncated))
	}
}

// extensionStats runs the beyond-the-paper analyses. The planted-FK
// recovery rate needs generation provenance, so it is computed only
// when the source is a *gen.Corpus; everything else is structural.
// fdPer holds the §4 results for fdTables, index for index.
func extensionStats(src corpus.Source, tables []*table.Table, fdTables []*table.Table, fdPer []tableFD) ExtensionStats {
	var ext ExtensionStats

	inds := ind.Find(tables, ind.Options{})
	ext.INDs = len(inds)
	fks := ind.ForeignKeyCandidates(tables, inds)
	ext.ForeignKeyCandidates = len(fks)
	if gc, ok := src.(*gen.Corpus); ok && len(fks) > 0 {
		planted := 0
		for _, d := range fks {
			m1 := gc.Metas[d.DepTable]
			m2 := gc.Metas[d.RefTable]
			if m1.Cols[d.DepCol].Role == gen.RoleForeignKey && m2.Cols[d.RefCol].Role == gen.RoleEntityKey &&
				m1.Cols[d.DepCol].Pool == m2.Cols[d.RefCol].Pool {
				planted++
			}
		}
		ext.PlantedFKRecovered = float64(planted) / float64(len(fks))
	}

	inFuzzy := map[int]struct{}{}
	for _, p := range union.FindFuzzy(tables, union.FuzzyOptions{}) {
		inFuzzy[p.T1] = struct{}{}
		inFuzzy[p.T2] = struct{}{}
	}
	ext.FuzzyUnionTables = len(inFuzzy)

	// FD plausibility over a bounded sample of the FD subset.
	var sum float64
	n := 0
	for i, t := range fdTables {
		if n >= 200 {
			break
		}
		for _, f := range fdPer[i].fds {
			sum += fd.Plausibility(t, f)
			n++
			if n >= 200 {
				break
			}
		}
	}
	if n > 0 {
		ext.MeanFDPlausibility = sum / float64(n)
	}
	return ext
}

func profileCorpus(portal string, metas []corpus.TableMeta) *profile.Corpus {
	pc := &profile.Corpus{Portal: portal}
	pc.Tables = make([]profile.TableInfo, 0, len(metas))
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

// measureFunnel serves the corpus through a CKAN API server and runs
// the acquisition pipeline against it. The fetch client shares the
// study's worker bound and is deterministic for every value of it;
// its metrics land in the study registry under the portal label, and
// its stage spans under the given span. Sources without the
// servablePortal capability skip the measurement.
func measureFunnel(src corpus.Source, portalName string, opts Options, span *obs.Span) profile.FunnelCounts {
	sp, ok := src.(servablePortal)
	if !ok {
		span.End()
		return profile.FunnelCounts{}
	}
	portal := sp.ServablePortal(opts.Seed)
	srv := httptest.NewServer(ckan.NewServer(portal))
	defer srv.Close()
	client := ckan.NewClient(srv.URL)
	client.Workers = opts.Workers
	client.Seed = opts.Seed
	client.Metrics = opts.Metrics
	client.MetricLabels = []string{"portal", portalName}
	client.Trace = span
	client.Now = opts.Clock
	_, st, err := client.FetchAll()
	span.End()
	if err != nil {
		return profile.FunnelCounts{}
	}
	return profile.FunnelCounts{
		Datasets:     st.Datasets,
		Tables:       st.Tables,
		Downloadable: st.Downloadable,
		Readable:     st.Readable,
	}
}

func sizeHistograms(metas []corpus.TableMeta) (cols, rows []stats.Bucket) {
	var colCounts, rowCounts []float64
	for _, m := range metas {
		colCounts = append(colCounts, float64(m.Table.NumCols()))
		rowCounts = append(rowCounts, float64(m.Table.NumRows()))
	}
	cols = stats.Histogram(colCounts, []float64{0, 5, 10, 20, 50, 100})
	rows = stats.Histogram(rowCounts, []float64{0, 10, 100, 1000, 10000, 100000, 1e9})
	return cols, rows
}

// fdSubset selects the paper's FD-analysis subset: 10 ≤ rows ≤ 10000
// and 5 ≤ cols ≤ 20.
func fdSubset(metas []corpus.TableMeta, max int) []*table.Table {
	var out []*table.Table
	for _, m := range metas {
		t := m.Table
		if t.NumRows() < 10 || t.NumRows() > 10000 {
			continue
		}
		if t.NumCols() < 5 || t.NumCols() > 20 {
			continue
		}
		out = append(out, t)
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// fdCost aggregates the deterministic work counters of one portal's
// FD analysis, for the observability layer.
type fdCost struct {
	cardinalities int
	fds           int
}

// tableFD is one table's FD/BCNF result, the work unit of the fused
// §4 fan-out in runPortal. Results are index-addressed and folded in
// index order by foldFD, so the aggregate (including its
// floating-point sums) is identical for every worker count.
type tableFD struct {
	cols      int
	withFD    bool
	simpleFD  bool
	subTables int
	inBCNF    bool
	partCols  []float64
	gain      float64
	cost      fd.Cost
	fds       []fd.FD // the table's minimal non-trivial FDs
}

// fdTableOne runs FD discovery and BCNF decomposition on one table;
// the decomposition's root search is the table's FD discovery. The
// table's decomposition choices are drawn from an rng stream derived
// from (seed, seedSaltFD, table index i), never from shared state, so
// distinct indices may run concurrently.
func fdTableOne(t *table.Table, seed int64, i int) tableFD {
	rng := rand.New(rand.NewSource(sectionSeed(seed, seedSaltFD) + int64(i)))
	res := normalize.Decompose(t, fd.MaxLHS, rng)
	r := tableFD{cols: t.NumCols(), cost: res.Cost, fds: res.FDs}
	if len(res.FDs) == 0 {
		r.subTables = 1
		r.inBCNF = true
		return r
	}
	r.withFD = true
	r.simpleFD = len(fd.SimpleFDs(res.FDs)) > 0
	r.subTables = len(res.Tables)
	r.inBCNF = res.InBCNF()
	if !r.inBCNF {
		for _, sub := range res.Tables {
			r.partCols = append(r.partCols, float64(sub.NumCols()))
		}
		r.gain = res.UniquenessGain()
	}
	return r
}

// foldFD aggregates per-table FD results in index order.
func foldFD(per []tableFD) (FDStats, fdCost) {
	st := FDStats{DecompositionDist: map[int]int{}}
	var cost fdCost
	var cols float64
	var decomposed, partCols, gains []float64
	for _, r := range per {
		st.Tables++
		st.Columns += r.cols
		cols += float64(r.cols)
		cost.cardinalities += r.cost.Cardinalities
		cost.fds += r.cost.FDs
		if !r.withFD {
			st.DecompositionDist[1]++
			continue
		}
		st.WithFD++
		if r.simpleFD {
			st.WithSimpleFD++
		}
		st.DecompositionDist[r.subTables]++
		if !r.inBCNF {
			decomposed = append(decomposed, float64(r.subTables))
			partCols = append(partCols, r.partCols...)
			gains = append(gains, r.gain)
		}
	}
	if st.Tables > 0 {
		st.AvgCols = cols / float64(st.Tables)
		st.WithFDPct = float64(st.WithFD) / float64(st.Tables)
		st.WithSimpleFDPct = float64(st.WithSimpleFD) / float64(st.Tables)
	}
	st.AvgDecomposed = stats.Mean(decomposed)
	st.AvgPartitionCols = stats.Mean(partCols)
	st.AvgUniquenessGain = stats.Mean(gains)
	return st, cost
}

func joinStats(tables []*table.Table, ja *join.Analysis) JoinStats {
	st := JoinStats{Tables: len(tables), Pairs: len(ja.Pairs)}
	for _, t := range tables {
		st.Columns += t.NumCols()
	}
	tableNbrs := map[int]map[int]struct{}{}
	type colKey struct{ t, c int }
	colNbrs := map[colKey]map[colKey]struct{}{}
	colKeyness := map[colKey]bool{}
	for _, p := range ja.Pairs {
		addNbr(tableNbrs, p.T1, p.T2)
		addNbr(tableNbrs, p.T2, p.T1)
		a, b := colKey{p.T1, p.C1}, colKey{p.T2, p.C2}
		if colNbrs[a] == nil {
			colNbrs[a] = map[colKey]struct{}{}
		}
		colNbrs[a][b] = struct{}{}
		if colNbrs[b] == nil {
			colNbrs[b] = map[colKey]struct{}{}
		}
		colNbrs[b][a] = struct{}{}
		colKeyness[a] = p.Key1
		colKeyness[b] = p.Key2
		st.Expansions = append(st.Expansions, p.Expansion)
	}
	st.JoinableTables = len(tableNbrs)
	if st.Tables > 0 {
		st.JoinableTablesPct = float64(st.JoinableTables) / float64(st.Tables)
	}
	var tdeg []float64
	for _, n := range tableNbrs {
		tdeg = append(tdeg, float64(len(n)))
		if len(n) > st.MaxTableDegree {
			st.MaxTableDegree = len(n)
		}
	}
	sort.Float64s(tdeg) // canonical order: map iteration emitted these
	st.MedianTableDegree = stats.Median(tdeg)
	st.JoinableCols = len(colNbrs)
	if st.Columns > 0 {
		st.JoinableColsPct = float64(st.JoinableCols) / float64(st.Columns)
	}
	var cdeg []float64
	for k, n := range colNbrs {
		cdeg = append(cdeg, float64(len(n)))
		if len(n) > st.MaxColDegree {
			st.MaxColDegree = len(n)
		}
		if colKeyness[k] {
			st.KeyJoinable++
		} else {
			st.NonkeyJoinable++
		}
	}
	sort.Float64s(cdeg) // canonical order: map iteration emitted these
	st.MedianColDegree = stats.Median(cdeg)
	if st.JoinableCols > 0 {
		st.KeyJoinablePct = float64(st.KeyJoinable) / float64(st.JoinableCols)
		st.NonkeyJoinablePct = float64(st.NonkeyJoinable) / float64(st.JoinableCols)
	}
	st.ExpansionLV = stats.LetterValueSummary(st.Expansions, 5)
	return st
}

func addNbr(m map[int]map[int]struct{}, a, b int) {
	if m[a] == nil {
		m[a] = map[int]struct{}{}
	}
	m[a][b] = struct{}{}
}

func labelResults(tables []*table.Table, samples []classify.SampledPair) LabelResults {
	lr := LabelResults{
		Samples:  len(samples),
		Overall:  classify.Overall(samples),
		Locality: classify.ByDatasetLocality(samples),
		Combos:   classify.ByKeyCombo(samples),
		Types:    classify.ByTypeGroup(samples),
		Buckets:  classify.BySizeBucket(samples),
	}
	lr.Predictor = classify.Predictor{}.Evaluate(tables, samples)
	lr.Baseline = classify.BaselineOverlapOnly{}.Evaluate(tables, samples)
	return lr
}

func unionStats(nTables int, ua *union.Analysis) UnionStats {
	st := UnionStats{
		Tables:              nTables,
		UnionableTables:     ua.UnionableTables(),
		UniqueSchemas:       ua.UniqueSchemas,
		UnionableSchemas:    len(ua.Groups),
		SingleDatasetGroups: ua.SingleDatasetGroups(),
	}
	if st.Tables > 0 {
		st.UnionableTablesPct = float64(st.UnionableTables) / float64(st.Tables)
	}
	if st.UniqueSchemas > 0 {
		st.AvgTablesPerSchema = float64(st.Tables) / float64(st.UniqueSchemas)
		st.UnionableSchemasPct = float64(st.UnionableSchemas) / float64(st.UniqueSchemas)
	}
	if st.UnionableSchemas > 0 {
		st.SingleDatasetPct = float64(st.SingleDatasetGroups) / float64(st.UnionableSchemas)
	}
	degs := ua.Degrees()
	st.MedianDegree = stats.MedianInts(degs)
	for _, d := range degs {
		if d > st.MaxDegree {
			st.MaxDegree = d
		}
	}
	return st
}
