package search

import (
	"sort"
	"sync/atomic"

	"ogdp/internal/classify"
	"ogdp/internal/minhash"
	"ogdp/internal/normalize"
	"ogdp/internal/obs"
	"ogdp/internal/table"
)

// Ranked-retrieval defaults. The band/row setting is recall-safe: with
// 64 bands of 2 rows over a 128-permutation signature, a candidate
// pair of Jaccard similarity s survives banding with probability
// 1-(1-s²)⁶⁴ — above 99.8% at s ≥ 0.3, which is why the ranked output
// stays byte-identical to the exhaustive scan on the study corpora
// (pinned by TestLSHAgreesWithExactOnStudyCorpora) while verifying far
// fewer candidates on large ones.
const (
	// DefaultBands and DefaultRows are the recall-safe LSH banding
	// parameters.
	DefaultBands = 64
	DefaultRows  = 2
	// DefaultExactCutoff is the indexed-column count below which
	// candidate generation keeps the exact postings scan: under a few
	// hundred columns the scan is already cheap, and skipping the
	// signature build keeps small-corpus construction fast.
	DefaultExactCutoff = 512
	// DefaultEvidenceJaccard is the Jaccard floor below which a column
	// pair does not count as join evidence. The floor serves two ends
	// at once: overlap this thin is accidental-join noise (year
	// columns, city names — the paper's R-Acc/U-Acc patterns), and it
	// is what makes the LSH path's output identical to the exact scan —
	// at 64×2 banding a pair at the floor is missed with probability
	// (1-0.45²)⁶⁴ < 10⁻⁶, and ever more rarely above it, while pairs
	// below the floor are discarded by both paths anyway.
	DefaultEvidenceJaccard = 0.45
)

// TableMeta carries the dataset-level metadata signals the hypothesis
// scorer weighs, parallel to the indexed table slice. The zero value
// (no metadata) degrades the metadata signal to same-dataset identity
// from table.DatasetID alone.
type TableMeta struct {
	// DatasetID attributes the table to its dataset.
	DatasetID string
	// Category is the dataset's subject category.
	Category string
}

// SkipStats counts the columns the index build passed over, by reason
// — the index-coverage ledger (diskcorpus keeps the same kind of
// ledger for files). Before this existed, columns vanishing at the
// minUnique gate or the empty-profile check were silently invisible.
type SkipStats struct {
	// MinUnique counts columns below the distinct-value eligibility bar.
	MinUnique int
	// Empty counts columns that passed the gate but hold no non-null
	// values (Distinct == 0), so there is nothing to index.
	Empty int
}

// Options configures NewWithOptions. Zero values select the package
// defaults, so Options{} is a valid full-default configuration.
type Options struct {
	// MinUnique is the distinct-value eligibility bar
	// (MinUniqueDefault for the paper's filter; ≤ 0 indexes all
	// non-empty columns).
	MinUnique int
	// Weights drive the hypothesis scorer; the zero value selects
	// DefaultHypothesisWeights.
	Weights HypothesisWeights
	// Meta is optional per-table dataset metadata, parallel to the
	// table slice; nil disables the category half of the metadata
	// signal.
	Meta []TableMeta
	// SignatureSize is the MinHash signature length (default
	// minhash.SignatureSize). Bands*Rows must not exceed it.
	SignatureSize int
	// Bands and Rows set the LSH banding (defaults DefaultBands,
	// DefaultRows).
	Bands, Rows int
	// ExactCutoff is the indexed-column count below which ranked
	// candidate generation uses the exact postings scan instead of LSH
	// (default DefaultExactCutoff). Pass 1 to band every corpus, or a
	// value larger than the corpus to force the exact path.
	ExactCutoff int
	// EvidenceJaccard is the Jaccard floor for join evidence (default
	// DefaultEvidenceJaccard; pass a tiny positive value to keep all
	// overlapping pairs).
	EvidenceJaccard float64
	// Registry receives index-coverage and candidate/verification
	// counters; nil disables them.
	Registry *obs.Registry
}

// withDefaults pins the zero-value fields.
func (o Options) withDefaults() Options {
	if o.Weights == (HypothesisWeights{}) {
		o.Weights = DefaultHypothesisWeights()
	}
	if o.SignatureSize <= 0 {
		o.SignatureSize = minhash.SignatureSize
	}
	if o.Bands <= 0 {
		o.Bands = DefaultBands
	}
	if o.Rows <= 0 {
		o.Rows = DefaultRows
	}
	if o.ExactCutoff <= 0 {
		o.ExactCutoff = DefaultExactCutoff
	}
	if o.EvidenceJaccard <= 0 {
		o.EvidenceJaccard = DefaultEvidenceJaccard
	}
	return o
}

// HypothesisWeights weights the signals of an integration hypothesis
// (Eberius et al.: combine value overlap, schema similarity, and
// metadata into one weighted score). The zero value is replaced by
// DefaultHypothesisWeights.
type HypothesisWeights struct {
	// Containment weights |Q ∩ C| / |Q| of the best column pair, the
	// LSH-Ensemble metric robust to asymmetric set sizes.
	Containment float64
	// Jaccard weights the symmetric overlap of the best column pair.
	Jaccard float64
	// SchemaName weights the normalized column-name token overlap of
	// the two schemas.
	SchemaName float64
	// SameSchema is the exact schema-identity bonus (the paper's §6
	// unionability evidence).
	SameSchema float64
	// TypeCompat weights type agreement of the best column pair (or of
	// the whole schema for union-only hypotheses).
	TypeCompat float64
	// Metadata weights the dataset-metadata signal: same dataset
	// scores 1, same category 0.5.
	Metadata float64
}

// DefaultHypothesisWeights balances the signals the way the paper's
// labeling study orders them: value evidence first (Tables 8-10),
// then metadata locality, then schema agreement.
func DefaultHypothesisWeights() HypothesisWeights {
	return HypothesisWeights{
		Containment: 0.35,
		Jaccard:     0.10,
		SchemaName:  0.15,
		SameSchema:  0.15,
		TypeCompat:  0.05,
		Metadata:    0.20,
	}
}

// typeInformativeness is the Table 10 usefulness prior per join-column
// type group, scaling the value-overlap evidence: overlap on an
// incremental-integer column carries no integration signal no matter
// how large, while overlap on categorical or string values does.
var typeInformativeness = map[string]float64{
	"incremental integer": 0.0,
	"categorical":         1.0,
	"integer":             0.5,
	"string":              0.9,
	"timestamp":           0.7,
	"geo-spatial":         0.8,
}

// Hypothesis is one scored integration hypothesis: a candidate corpus
// table with the evidence for integrating the query table with it.
type Hypothesis struct {
	// Table indexes the candidate in the engine's table slice.
	Table int
	// QueryCol/CandCol identify the best joinable column pair, or -1
	// when the hypothesis rests on schema evidence alone.
	QueryCol, CandCol int
	// Overlap, Containment, Jaccard describe the best pair's exact
	// value overlap (zero without a pair).
	Overlap     int
	Containment float64
	Jaccard     float64
	// SchemaName is the normalized column-name token similarity.
	SchemaName float64
	// TypeCompat measures type agreement of the evidence columns.
	TypeCompat float64
	// Metadata is the dataset-metadata signal (1 same dataset, 0.5
	// same category, 0 otherwise).
	Metadata float64
	// SameSchema marks an exact schema-key match (unionable, §6).
	SameSchema bool
	// Score is the weighted combination; hypotheses are ranked by it.
	Score float64
}

// engineStats accumulates candidate/verification work counters across
// the engine's lifetime; safe for concurrent queries.
type engineStats struct {
	queries    atomic.Uint64
	candidates atomic.Uint64
	verified   atomic.Uint64

	// Mirrored obs counters (nil-safe no-ops without a registry).
	cQueries    *obs.Counter
	cCandidates *obs.Counter
	cVerified   *obs.Counter
}

// Stats is a snapshot of the engine's ranked-query work counters.
type Stats struct {
	// Path names the candidate-generation strategy: "exact" below the
	// corpus-size cutoff, "lsh" above it.
	Path string
	// Queries counts ranked column lookups (one per eligible query
	// column per RankTables call).
	Queries uint64
	// Candidates counts candidate columns generated (postings hits on
	// the exact path, band collisions on the LSH path).
	Candidates uint64
	// Verified counts exact-overlap computations performed. On the
	// exact path every candidate is verified by construction; the LSH
	// path's saving is exactly the gap between an exhaustive scan's
	// candidate count and this.
	Verified uint64
}

// Path reports the candidate-generation strategy the engine settled
// on at build time.
func (e *Engine) Path() string {
	if e.lsh != nil {
		return "lsh"
	}
	return "exact"
}

// Stats snapshots the engine's cumulative ranked-query work counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Path:       e.Path(),
		Queries:    e.stats.queries.Load(),
		Candidates: e.stats.candidates.Load(),
		Verified:   e.stats.verified.Load(),
	}
}

// Skips reports the index-coverage ledger: how many corpus columns the
// build skipped, by reason.
func (e *Engine) Skips() SkipStats { return e.skips }

// registerMetrics publishes the index-coverage counters and binds the
// per-query work counters to the registry (all nil-safe).
func (e *Engine) registerMetrics(reg *obs.Registry) {
	path := e.Path()
	reg.Counter("ogdp_search_index_columns_total",
		"Columns indexed for ranked search.").Add(int64(len(e.columns)))
	reg.Counter("ogdp_search_index_skipped_total",
		"Columns the search index build passed over, by reason.",
		"reason", "below-min-unique").Add(int64(e.skips.MinUnique))
	reg.Counter("ogdp_search_index_skipped_total",
		"Columns the search index build passed over, by reason.",
		"reason", "no-values").Add(int64(e.skips.Empty))
	e.stats.cQueries = reg.Counter("ogdp_search_rank_queries_total",
		"Ranked candidate lookups, by candidate-generation path.", "path", path)
	e.stats.cCandidates = reg.Counter("ogdp_search_rank_candidates_total",
		"Candidate columns generated for ranked queries, by path.", "path", path)
	e.stats.cVerified = reg.Counter("ogdp_search_rank_verified_total",
		"Exact-overlap verifications performed for ranked queries, by path.", "path", path)
}

// note records one candidate lookup's work in the lifetime stats and
// the mirrored obs counters.
func (s *engineStats) note(candidates, verified int) {
	s.queries.Add(1)
	s.candidates.Add(uint64(candidates))
	s.verified.Add(uint64(verified))
	s.cQueries.Inc()
	s.cCandidates.Add(int64(candidates))
	s.cVerified.Add(int64(verified))
}

// colOverlap pairs an indexed column id with its exact overlap against
// the query column.
type colOverlap struct {
	id      int32
	overlap int
}

// rankCandidates generates and verifies the candidate columns for one
// query column: the exact postings scan below the corpus-size cutoff,
// LSH band collisions above it with exact overlap computed only for
// collision survivors. Results come back in ascending column-id order
// (deterministic regardless of path), with zero-overlap survivors
// dropped.
func (e *Engine) rankCandidates(q *table.ColumnProfile, exclude int) []colOverlap {
	if e.lsh == nil {
		counts := e.overlaps(q, exclude)
		out := make([]colOverlap, 0, len(counts))
		for id, n := range counts {
			out = append(out, colOverlap{id: id, overlap: n})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
		e.stats.note(len(counts), len(counts))
		return out
	}
	sig := minhash.Sketch(q.ValueHashes(), e.sigSize)
	ids := e.lsh.Candidates(sig)
	verified := 0
	var out []colOverlap
	for _, id := range ids {
		if exclude >= 0 && e.columns[id].Table == exclude {
			continue
		}
		verified++
		if n := table.IntersectSize(q.ValueHashes(), e.profiles[id].ValueHashes()); n > 0 {
			out = append(out, colOverlap{id: int32(id), overlap: n})
		}
	}
	e.stats.note(len(ids), verified)
	return out
}

// pairEvidence is the best joinable column pair found for one
// candidate table during candidate generation.
type pairEvidence struct {
	qc, cc  int
	id      int32 // indexed-column id of cc, to resolve its profile
	overlap int
	cont    float64
	jac     float64
	value   float64 // type-weighted value evidence, the comparison key
	found   bool
}

// better reports whether a beats b as a candidate table's join
// evidence, with a deterministic total order on ties.
func (a pairEvidence) better(b pairEvidence) bool {
	if !b.found {
		return true
	}
	if a.value > b.value {
		return true
	}
	if a.value < b.value {
		return false
	}
	if a.overlap != b.overlap {
		return a.overlap > b.overlap
	}
	if a.qc != b.qc {
		return a.qc < b.qc
	}
	return a.cc < b.cc
}

// RankTables returns the top-k integration hypotheses for the query
// table: every corpus table with verified value overlap on an eligible
// column pair or an exact schema match, scored by the weighted signal
// combination and ranked best-first. excludeTable removes a corpus
// table from the results (pass the query's own index when querying
// corpus members, or -1). The ranking is deterministic: ties break
// toward higher containment, then higher overlap, then lower table
// index.
func (e *Engine) RankTables(q *table.Table, k, excludeTable int) []Hypothesis {
	return e.RankTablesSpan(q, k, excludeTable, nil)
}

// RankTablesSpan is RankTables with stage spans: candidate counts,
// verification counts, and scored-hypothesis counts are attributed to
// child spans of span (nil span disables tracing at no cost).
func (e *Engine) RankTablesSpan(q *table.Table, k, excludeTable int, span *obs.Span) []Hypothesis {
	if k <= 0 || q.NumCols() == 0 {
		return nil
	}
	candSpan := span.Child("candidates")
	before := Stats{Candidates: e.stats.candidates.Load(), Verified: e.stats.verified.Load()}

	// Stage 1: per eligible query column, generate candidates and keep
	// the best verified pair per candidate table.
	evidence := map[int]pairEvidence{}
	w := e.weights
	for qc := range q.Cols {
		qp := q.Profile(qc)
		if qp.Distinct == 0 || (e.minUnique > 0 && qp.Distinct < e.minUnique) {
			continue
		}
		for _, co := range e.rankCandidates(qp, excludeTable) {
			ref := e.columns[co.id]
			cp := e.profiles[co.id]
			ev := pairEvidence{
				qc:      qc,
				cc:      ref.Column,
				id:      co.id,
				overlap: co.overlap,
				found:   true,
			}
			union := qp.Distinct + cp.Distinct - co.overlap
			if union > 0 {
				ev.jac = float64(co.overlap) / float64(union)
			}
			// Overlap below the evidence floor is accidental-join noise;
			// dropping it here (on both candidate paths) is also what
			// keeps the LSH output identical to the exact scan — see
			// DefaultEvidenceJaccard.
			if ev.jac < e.minEvJac {
				continue
			}
			if qp.Distinct > 0 {
				ev.cont = float64(co.overlap) / float64(qp.Distinct)
			}
			prior := typeInformativeness[classify.JoinTypeGroup(cp.Type)]
			ev.value = prior * (w.Containment*ev.cont + w.Jaccard*ev.jac)
			if ev.better(evidence[ref.Table]) {
				evidence[ref.Table] = ev
			}
		}
	}
	after := Stats{Candidates: e.stats.candidates.Load(), Verified: e.stats.verified.Load()}
	candSpan.AddTasks(int(after.Candidates - before.Candidates))
	candSpan.AddItems(int(after.Verified - before.Verified))
	candSpan.End()

	// Stage 2: exact schema twins are hypotheses even without value
	// evidence (§6 unionability).
	key := q.SchemaKey()
	for ti, t := range e.tables {
		if ti == excludeTable || t.NumCols() == 0 {
			continue
		}
		if t.SchemaKey() == key {
			if _, ok := evidence[ti]; !ok {
				evidence[ti] = pairEvidence{qc: -1, cc: -1}
			}
		}
	}

	// Stage 3: score and rank.
	scoreSpan := span.Child("score")
	out := make([]Hypothesis, 0, len(evidence))
	for ti, ev := range evidence {
		ct := e.tables[ti]
		h := Hypothesis{Table: ti, QueryCol: -1, CandCol: -1}
		if ev.found {
			h.QueryCol, h.CandCol = ev.qc, ev.cc
			h.Overlap, h.Containment, h.Jaccard = ev.overlap, ev.cont, ev.jac
		}
		h.SameSchema = ct.NumCols() > 0 && ct.SchemaKey() == key
		h.SchemaName = normalize.SchemaNameSimilarity(q.Cols, ct.Cols)
		h.TypeCompat = e.typeCompat(q, ev, h.SameSchema)
		h.Metadata = e.metaScore(q, excludeTable, ti)
		h.Score = ev.value +
			w.SchemaName*h.SchemaName +
			w.TypeCompat*h.TypeCompat +
			w.Metadata*h.Metadata
		if h.SameSchema {
			h.Score += w.SameSchema
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score > out[j].Score {
			return true
		}
		if out[i].Score < out[j].Score {
			return false
		}
		if out[i].Containment > out[j].Containment {
			return true
		}
		if out[i].Containment < out[j].Containment {
			return false
		}
		if out[i].Overlap != out[j].Overlap {
			return out[i].Overlap > out[j].Overlap
		}
		return out[i].Table < out[j].Table
	})
	if len(out) > k {
		out = out[:k]
	}
	scoreSpan.AddItems(len(out))
	scoreSpan.End()
	return out
}

// typeCompat scores type agreement: exact column-type identity of the
// best pair scores 1, broad-class agreement 0.5, disagreement 0;
// union-only hypotheses inherit 1 from the schema key (which embeds
// broad classes).
func (e *Engine) typeCompat(q *table.Table, ev pairEvidence, sameSchema bool) float64 {
	if !ev.found {
		if sameSchema {
			return 1
		}
		return 0
	}
	qt := q.Profile(ev.qc).Type
	ct := e.profiles[ev.id].Type
	if qt == ct {
		return 1
	}
	if qt.BroadClass() == ct.BroadClass() {
		return 0.5
	}
	return 0
}

// metaScore is the dataset-metadata signal: same dataset 1, same
// category 0.5, otherwise 0. The query's category is known only for
// corpus members (via excludeTable); external query tables fall back
// to dataset identity from table.DatasetID.
func (e *Engine) metaScore(q *table.Table, excludeTable, ti int) float64 {
	cand := e.tables[ti]
	if q.DatasetID != "" && q.DatasetID == cand.DatasetID {
		return 1
	}
	if e.meta == nil || ti >= len(e.meta) {
		return 0
	}
	qcat := ""
	if excludeTable >= 0 && excludeTable < len(e.meta) {
		qcat = e.meta[excludeTable].Category
	}
	if qcat != "" && e.meta[ti].Category == qcat {
		return 0.5
	}
	return 0
}
