// Package ogdp is the public API of the OGDP-study library, a full
// reproduction of "Analysis of Open Government Datasets From a Data
// Design and Integration Perspective" (EDBT 2024). It re-exports the
// stable surface of the internal packages:
//
//   - parsing CSV resources with the paper's header-inference and
//     cleaning pipeline,
//   - profiling tables (nulls, uniqueness, keys),
//   - discovering functional dependencies (the FUN algorithm) and
//     decomposing tables into BCNF,
//   - finding joinable pairs by Jaccard value overlap with expansion
//     ratios, and unionable sets by schema identity,
//   - generating calibrated synthetic portals (SG/CA/UK/US) and
//     running the paper's entire study over them.
//
// # Concurrency
//
// The study, the join search, and the CKAN acquisition client share a
// deterministic parallel execution layer (a bounded worker pool in
// internal/parallel), controlled by StudyOptions.Workers,
// JoinOptions.Workers and FetchClient.Workers: 0 uses all CPUs, 1
// runs sequentially. Every parallel unit draws from an
// index-derived rng stream and merged outputs are restored to the
// sequential order, so results are byte-identical for every worker
// count — raising Workers only changes wall-clock time. Tables are
// safe to share across these analyses: a table is immutable once
// built, and each column's caches are built under that column's own
// lock and published atomically, so readers never block.
//
// See the examples/ directory for runnable walkthroughs and
// cmd/ogdpreport for the end-to-end reproduction of every table and
// figure in the paper.
package ogdp

import (
	"io"
	"math/rand"
	"os"

	"ogdp/internal/ckan"
	"ogdp/internal/classify"
	"ogdp/internal/core"
	"ogdp/internal/corpus"
	"ogdp/internal/csvio"
	"ogdp/internal/dict"
	"ogdp/internal/diskcorpus"
	"ogdp/internal/fd"
	"ogdp/internal/gen"
	"ogdp/internal/ind"
	"ogdp/internal/join"
	"ogdp/internal/keys"
	"ogdp/internal/normalize"
	"ogdp/internal/obs"
	"ogdp/internal/rank"
	"ogdp/internal/report"
	"ogdp/internal/search"
	"ogdp/internal/sqlgen"
	"ogdp/internal/table"
	"ogdp/internal/union"
	"ogdp/internal/values"
)

// Re-exported core types. The alias form keeps one canonical
// definition while giving downstream users a single import.
type (
	// Table is an in-memory relational table with cached column
	// profiles.
	Table = table.Table
	// ColumnProfile is a column's cached null/distinct/type profile.
	ColumnProfile = table.ColumnProfile
	// ColumnType is the column-level data type (incremental integer,
	// categorical, timestamp, ...).
	ColumnType = values.ColumnType
	// FD is a functional dependency with a single right-hand attribute.
	FD = fd.FD
	// BCNFResult describes one BCNF decomposition.
	BCNFResult = normalize.Result
	// JoinPair is a joinable column pair with Jaccard similarity and
	// expansion ratio.
	JoinPair = join.Pair
	// JoinAnalysis is the result of a joinability search.
	JoinAnalysis = join.Analysis
	// JoinOptions tunes the joinability search.
	JoinOptions = join.Options
	// UnionAnalysis is the result of a unionability search.
	UnionAnalysis = union.Analysis
	// UnionGroup is one set of mutually unionable tables.
	UnionGroup = union.Group
	// PortalProfile is a calibrated synthetic portal profile.
	PortalProfile = gen.PortalProfile
	// Corpus is a generated portal corpus with provenance.
	Corpus = gen.Corpus
	// CorpusSource is the storage-agnostic corpus interface the study
	// runs over; *Corpus and disk-loaded corpora both implement it.
	CorpusSource = corpus.Source
	// StudyOptions configures a full study run.
	StudyOptions = core.Options
	// StudyResult holds every experiment of the paper for all portals.
	StudyResult = core.StudyResult
	// PortalResult holds every experiment for one portal.
	PortalResult = core.PortalResult
	// Label is the accidental/useful annotation of an integration pair.
	Label = classify.Label
	// CSVOptions tunes CSV parsing.
	CSVOptions = csvio.Options
	// ApproxFD is a functional dependency holding up to a g3 error.
	ApproxFD = fd.ApproxFD
	// ScoredJoin is a join pair with its suggestion-ranking score.
	ScoredJoin = rank.ScoredJoin
	// ScoredUnion is a union candidate with its relatedness score.
	ScoredUnion = rank.ScoredUnion
	// Dictionary is an extracted column -> description mapping.
	Dictionary = dict.Dictionary
	// SearchEngine answers query-table discovery requests (top-k
	// joinable by overlap, unionable by schema) over an indexed corpus.
	SearchEngine = search.Engine
	// SearchResult is one joinability search hit.
	SearchResult = search.Result
	// ThreeNFResult is the outcome of 3NF synthesis.
	ThreeNFResult = normalize.ThreeNFResult
	// FuzzyUnionPair is a pair of tables unionable under approximate
	// schema matching.
	FuzzyUnionPair = union.FuzzyPair
	// IND is a unary inclusion dependency (foreign-key shape).
	IND = ind.IND
	// FetchClient acquires a portal's CSV resources through the CKAN
	// API with bounded concurrency, per-request deadlines, and
	// deterministic retries for transient failures.
	FetchClient = ckan.Client
	// FetchedTable is a resource that survived the acquisition funnel.
	FetchedTable = ckan.FetchedTable
	// FunnelStats counts the acquisition funnel stages (Table 1) plus
	// the crawl's retry and partial-failure accounting.
	FunnelStats = ckan.FunnelStats
	// FetchFailure is one permanently failed request in the
	// acquisition error ledger.
	FetchFailure = ckan.FetchFailure
	// CKANPortal is a servable portal: datasets holding resources.
	CKANPortal = ckan.Portal
	// CKANServer serves a portal over the CKAN Action API v3, with
	// optional per-endpoint fault injection.
	CKANServer = ckan.Server
	// Faults configures a CKANServer's injected failures per endpoint.
	Faults = ckan.Faults
	// FaultSpec describes one endpoint's injected failures (transient
	// 500s, truncated bodies, latency).
	FaultSpec = ckan.FaultSpec
	// MetricsRegistry collects deterministic counters, gauges, and
	// fixed-bucket histograms; attach one to FetchClient.Metrics or
	// StudyOptions.Metrics and snapshot it after the run.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry, sorted
	// into canonical series order; render it with WriteText,
	// WriteJSON, or WritePrometheus.
	MetricsSnapshot = obs.Snapshot
	// TraceSpan is one stage of a run in a trace tree (see NewTrace).
	TraceSpan = obs.Span
)

// Labels.
const (
	LabelUAcc   = classify.LabelUAcc
	LabelRAcc   = classify.LabelRAcc
	LabelUseful = classify.LabelUseful
)

// MaxFDLHS is the paper's bound on FD left-hand-side size.
const MaxFDLHS = fd.MaxLHS

// ReadCSV parses a CSV document with the paper's pipeline: header
// inference over the first 500 rows, trailing empty column removal,
// and the 100-column wide-table cutoff.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	return csvio.Read(name, r)
}

// ReadCSVFile parses a CSV file from disk.
func ReadCSVFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return csvio.Read(path, f)
}

// ReadCSVWith parses with explicit options.
func ReadCSVWith(name string, r io.Reader, opts CSVOptions) (*Table, error) {
	return csvio.ReadWith(name, r, opts)
}

// WriteCSV serializes a table as CSV.
func WriteCSV(w io.Writer, t *Table) error { return csvio.Write(w, t) }

// DiscoverFDs returns the minimal non-trivial functional dependencies
// of t with |LHS| ≤ MaxFDLHS, using the FUN algorithm.
func DiscoverFDs(t *Table) []FD { return fd.Discover(t, fd.MaxLHS) }

// HasNontrivialFD reports whether t has any non-trivial FD.
func HasNontrivialFD(t *Table) bool { return fd.HasNontrivialFD(t, fd.MaxLHS) }

// DecomposeBCNF decomposes t into Boyce-Codd normal form using the
// paper's textbook algorithm with uniformly random FD choice.
func DecomposeBCNF(t *Table, seed int64) *BCNFResult {
	return normalize.Decompose(t, fd.MaxLHS, rand.New(rand.NewSource(seed)))
}

// KeyColumns returns the indices of single-column keys of t.
func KeyColumns(t *Table) []int { return keys.KeyColumns(t) }

// MinCandidateKeySize returns the size of t's smallest candidate key
// of at most 3 columns (0 when none exists).
func MinCandidateKeySize(t *Table) int {
	return keys.MinCandidateKeySize(t, keys.MaxCandidateKeySize)
}

// FindJoinable finds joinable table pairs: columns with ≥ 10 distinct
// values whose value sets have Jaccard similarity ≥ 0.9 (the paper's
// thresholds; override via opts). opts.Workers parallelizes the
// search without changing its result.
func FindJoinable(tables []*Table, opts JoinOptions) *JoinAnalysis {
	return join.Find(tables, opts)
}

// FindUnionable groups tables by exact schema identity (column names
// and broad types).
func FindUnionable(tables []*Table) *UnionAnalysis {
	return union.Find(tables)
}

// Portals returns the four calibrated portal profiles (SG, CA, UK,
// US).
func Portals() []PortalProfile { return gen.Profiles() }

// Portal returns one calibrated profile by code ("SG", "CA", "UK",
// "US").
func Portal(name string) (PortalProfile, bool) { return gen.ProfileByName(name) }

// GenerateCorpus builds a synthetic portal corpus. scale multiplies
// the calibrated size (1.0 = full); seed makes it deterministic.
func GenerateCorpus(p PortalProfile, scale float64, seed int64) *Corpus {
	return gen.Generate(p, scale, seed)
}

// RunStudy executes the paper's entire study over all four portals.
// opts.Workers bounds the parallel fan-out (0 = all CPUs); the result
// is byte-identical for every worker count.
func RunStudy(opts StudyOptions) *StudyResult {
	return core.Run(gen.Profiles(), opts)
}

// RunPortalStudy executes every analysis of the paper over one corpus
// source — generated or loaded from disk. Generated corpora
// additionally get the ground-truth labeling and the HTTP funnel;
// other sources run the structural analyses.
func RunPortalStudy(src CorpusSource, opts StudyOptions) PortalResult {
	return core.RunPortal(src, opts)
}

// SaveCorpus writes a generated corpus to a directory: one CSV per
// table plus dataset and provenance manifests, so LoadCorpusDir can
// reconstruct it for an identical study run.
func SaveCorpus(dir string, c *Corpus) error {
	_, err := gen.SaveCorpus(dir, c)
	return err
}

// LoadCorpusDir loads a directory of CSV files as a study-ready
// corpus source. Directories written by SaveCorpus (or ogdpgen) come
// back with full provenance; any other directory loads through the
// paper's acquisition pipeline (sniffing, header inference, cleaning).
func LoadCorpusDir(dir string) (CorpusSource, error) {
	return diskcorpus.LoadStudy(dir)
}

// WriteReport renders every table and figure of the paper from a
// study result, with the paper's reported values alongside.
func WriteReport(w io.Writer, res *StudyResult) {
	report.All(w, res)
	report.Summary(w, res)
}

// DiscoverApproximateFDs finds FDs that hold after removing at most
// maxError fraction of rows (g3 measure) — the dirty-data extension of
// the §4.3 analysis.
func DiscoverApproximateFDs(t *Table, maxLHS int, maxError float64) []ApproxFD {
	return fd.DiscoverApproximate(t, maxLHS, maxError)
}

// FDPlausibility scores how likely a discovered FD is a real semantic
// dependency rather than an instance accident (0..1), addressing the
// accidental-vs-real FD question the paper raises.
func FDPlausibility(t *Table, f FD) float64 { return fd.Plausibility(t, f) }

// RankJoins orders joinable pairs for suggestion using the non-value
// signals of §5.3 (dataset locality, key involvement, column type,
// expansion), best first.
func RankJoins(tables []*Table, pairs []JoinPair) []ScoredJoin {
	return rank.RankJoins(tables, pairs, rank.JoinWeights{})
}

// RankUnionCandidates orders the union partners of the target table by
// relatedness (the ranking problem §6 closes with), best first.
func RankUnionCandidates(a *UnionAnalysis, target int) []ScoredUnion {
	return rank.RankUnionCandidates(a, target, rank.UnionWeights{})
}

// ExtractDictionary parses a metadata document (CSV dictionary, HTML
// definition list, bullet list, or plain lines) into a data
// dictionary.
func ExtractDictionary(doc string) *Dictionary { return dict.Extract(doc) }

// DictionaryCoverage is the fraction of t's columns the dictionary
// describes.
func DictionaryCoverage(d *Dictionary, t *Table) float64 { return dict.Coverage(d, t) }

// DatasetMetadataDoc renders a generated dataset's dictionary document
// in its portal's (possibly unstructured) style; ok is false when the
// dataset publishes no dictionary.
func DatasetMetadataDoc(c *Corpus, datasetID string, seed int64) (string, bool) {
	return gen.MetadataDoc(c, datasetID, seed)
}

// NewFetchClient creates an acquisition client for the CKAN API at
// baseURL. Configure FetchClient.Workers/Retries/Timeout before
// calling FetchAll; results are byte-identical for every worker count.
func NewFetchClient(baseURL string) *FetchClient { return ckan.NewClient(baseURL) }

// NewCKANServer serves p over the CKAN Action API v3 surface the
// fetch client crawls. Use CKANServer.InjectFaults to simulate a
// flaky portal.
func NewCKANServer(p *CKANPortal) *CKANServer { return ckan.NewServer(p) }

// BuildCKANPortal serializes a corpus into a servable portal,
// planting broken resources (404s, HTML pages, garbage, wide tables)
// at the profile's calibrated rates.
func BuildCKANPortal(c *Corpus, seed int64) *CKANPortal { return gen.BuildPortal(c, seed) }

// NewSearchEngine indexes a corpus for query-table discovery with the
// paper's distinct-value filter.
func NewSearchEngine(tables []*Table) *SearchEngine {
	return search.New(tables, search.Options{})
}

// Synthesize3NF decomposes t into third normal form (lossless and
// dependency-preserving), the synthesis companion to DecomposeBCNF.
func Synthesize3NF(t *Table) *ThreeNFResult {
	return normalize.Synthesize3NF(t, fd.MaxLHS)
}

// DiscoverFDsTANE runs the TANE algorithm; it returns the same minimal
// non-trivial FDs as DiscoverFDs and exists for cross-validation and
// benchmarking.
func DiscoverFDsTANE(t *Table) []FD { return fd.DiscoverTANE(t, fd.MaxLHS) }

// FindUnionableFuzzy reports table pairs unionable under approximate
// schema matching (q-gram column-name similarity with compatible
// types), the relaxation used by the systems the paper cites.
func FindUnionableFuzzy(tables []*Table) []FuzzyUnionPair {
	return union.FindFuzzy(tables, union.FuzzyOptions{})
}

// DiscoverINDs finds unary inclusion dependencies (A ⊆ B) across the
// corpus — foreign-key candidates when B is a key.
func DiscoverINDs(tables []*Table) []IND {
	return ind.Find(tables, ind.Options{})
}

// NewMetricsRegistry creates an empty metrics registry. Everything
// the pipeline records into it is deterministic — wall time never
// enters unless a clock is explicitly injected — so snapshots are
// byte-identical for every worker count.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTrace creates a clockless root span: the tree records task,
// item, and byte counts only, and renders identically across runs.
// Attach it to StudyOptions.Trace or FetchClient.Trace and render it
// with TraceSpan.WriteTree.
func NewTrace(name string) *TraceSpan { return obs.NewTrace(name) }

// ExportSQL renders the tables as CREATE TABLE statements with
// inferred column types, discovered primary keys, and (when fks is
// true) foreign keys derived from inclusion dependencies — the
// "serve the decomposed base tables" suggestion of §4.3 in schema
// form.
func ExportSQL(tables []*Table, fks bool) string {
	return sqlgen.Schema(tables, sqlgen.Options{ForeignKeys: fks})
}
