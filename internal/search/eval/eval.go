// Package eval scores the ranked table-search engine against the
// generator's planted ground truth. Because internal/gen plants its
// integration structure on purpose — entity-key joins, date-key joins
// between event statistics, partition families, periodic and duplicate
// republications — the labeling oracle (gen.Truth) can grade every
// query/candidate table pair without manual annotation, which is the
// evaluation design of Glass et al.'s table-search corpus (PAPERS.md)
// run over this repo's synthetic portals. The package reports the
// standard ranked-retrieval metrics — precision@k, recall@k, NDCG@k —
// macro-averaged over the query tables that have at least one
// relevant partner, plus the engine's candidate/verification work
// counters.
package eval

import (
	"context"
	"math"

	"ogdp/internal/gen"
	"ogdp/internal/parallel"
	"ogdp/internal/search"
)

// DefaultK is the ranking depth the study evaluates at.
const DefaultK = 10

// Grades builds the ground-truth relevance matrix for a generated
// corpus: grades[q][c] is the oracle's integration grade of candidate
// table c for query table q (2 useful, 1 defensible, 0 irrelevant;
// the diagonal is 0).
func Grades(c *gen.Corpus) [][]int {
	o := gen.Truth(c)
	n := len(c.Metas)
	out := make([][]int, n)
	for q := 0; q < n; q++ {
		row := make([]int, n)
		for t := 0; t < n; t++ {
			row[t] = o.IntegrationGrade(q, t)
		}
		out[q] = row
	}
	return out
}

// SearchMetas projects a generated corpus's provenance into the
// search engine's metadata signals.
func SearchMetas(c *gen.Corpus) []search.TableMeta {
	out := make([]search.TableMeta, len(c.Metas))
	for i, m := range c.Metas {
		out[i] = search.TableMeta{DatasetID: m.Dataset, Category: m.Category}
	}
	return out
}

// Result is one evaluation run: quality metrics macro-averaged over
// the evaluable queries, plus the engine's work counters.
type Result struct {
	// K is the ranking depth evaluated.
	K int `json:"k"`
	// Tables is the corpus size; Queries counts the query tables with
	// at least one relevant partner (the macro-average denominator).
	Tables  int `json:"tables"`
	Queries int `json:"queries"`
	// IndexedColumns is the engine's index size.
	IndexedColumns int `json:"indexed_columns"`
	// Precision, Recall, and NDCG are the @k metrics, macro-averaged.
	Precision float64 `json:"precision_at_k"`
	Recall    float64 `json:"recall_at_k"`
	NDCG      float64 `json:"ndcg_at_k"`
	// Candidates and Verified are the engine's cumulative work
	// counters over the whole run: candidate columns generated and
	// exact-overlap verifications performed.
	Candidates uint64 `json:"candidates"`
	Verified   uint64 `json:"verified"`
}

// Evaluate ranks every corpus table against the rest of the corpus
// under opts (nil Meta selects SearchMetas(c)) and scores the
// rankings against the grades matrix (from Grades). Queries fan out
// over the worker pool; results are deterministic for any worker
// count.
func Evaluate(c *gen.Corpus, grades [][]int, opts search.Options, k, workers int) Result {
	if k <= 0 {
		k = DefaultK
	}
	tables := c.Tables()
	if opts.Meta == nil {
		opts.Meta = SearchMetas(c)
	}
	eng := search.New(tables, opts)

	type perQuery struct {
		evaluable bool
		p, r, n   float64
	}
	rows := make([]perQuery, len(tables))
	parallel.Must(parallel.ForEach(parallel.WithPool(context.Background(), "search-eval"),
		len(tables), workers, func(q int) {
			relevant, ideal := relevanceOf(grades[q])
			if relevant == 0 {
				return
			}
			hs := eng.RankTables(tables[q], k, q)
			hits, dcg := 0, 0.0
			for i, h := range hs {
				g := grades[q][h.Table]
				if g > 0 {
					hits++
				}
				dcg += float64(g) / math.Log2(float64(i)+2)
			}
			rows[q] = perQuery{
				evaluable: true,
				p:         float64(hits) / float64(k),
				r:         float64(hits) / float64(relevant),
				n:         dcg / idealDCG(ideal, k),
			}
		}))

	res := Result{
		K:              k,
		Tables:         len(tables),
		IndexedColumns: eng.NumIndexed(),
	}
	for _, row := range rows {
		if !row.evaluable {
			continue
		}
		res.Queries++
		res.Precision += row.p
		res.Recall += row.r
		res.NDCG += row.n
	}
	if res.Queries > 0 {
		res.Precision /= float64(res.Queries)
		res.Recall /= float64(res.Queries)
		res.NDCG /= float64(res.Queries)
	}
	st := eng.Stats()
	res.Candidates = st.Candidates
	res.Verified = st.Verified
	return res
}

// relevanceOf summarizes one grades row: how many candidates are
// relevant (grade > 0), and the grade histogram [count of grade 1,
// count of grade 2] for the ideal-DCG computation.
func relevanceOf(row []int) (relevant int, hist [3]int) {
	for _, g := range row {
		if g > 0 {
			relevant++
		}
		if g >= 0 && g < len(hist) {
			hist[g]++
		}
	}
	return relevant, hist
}

// idealDCG is the DCG of the best possible ranking at depth k: all
// grade-2 candidates first, then grade-1.
func idealDCG(hist [3]int, k int) float64 {
	dcg, pos := 0.0, 0
	for g := 2; g >= 1; g-- {
		for i := 0; i < hist[g] && pos < k; i++ {
			dcg += float64(g) / math.Log2(float64(pos)+2)
			pos++
		}
	}
	if dcg > 0 {
		return dcg
	}
	return 1 // unreachable for evaluable queries; guards division
}
