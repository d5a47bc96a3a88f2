package search

import (
	"sort"

	"ogdp/internal/join"
	"ogdp/internal/table"
)

// ColumnRef identifies a corpus column.
type ColumnRef struct {
	Table  int
	Column int
}

// Result is one joinability search hit.
type Result struct {
	Ref ColumnRef
	// Overlap is the exact intersection size of distinct values.
	Overlap int
	// Jaccard is the exact Jaccard similarity.
	Jaccard float64
	// Containment is |Q ∩ C| / |Q|: how much of the query column the
	// candidate covers (the LSH-Ensemble metric, more robust for
	// asymmetric sizes).
	Containment float64
}

// Engine is an inverted index over a corpus's eligible columns: the
// postings scan behind the join queries here and the ranked retrieval
// in ranked.go.
type Engine struct {
	tables   []*table.Table
	columns  []ColumnRef
	distinct []int
	profiles []*table.ColumnProfile // indexed-column profiles, by id
	postings map[uint64][]int32     // value hash -> ids into columns

	// Ranked-retrieval state (ranked.go).
	meta  []TableMeta
	skips SkipStats
	stats engineStats
}

// New indexes every column of the corpus with at least
// MinUniqueDefault distinct values (the paper's join-eligibility
// filter); Options{} is a valid configuration.
func New(tables []*table.Table, opts Options) *Engine {
	e := &Engine{
		tables:   tables,
		postings: make(map[uint64][]int32),
		meta:     opts.Meta,
	}
	for ti := range tables {
		e.indexTableColumns(ti)
	}
	e.registerMetrics(opts.Registry)
	return e
}

// NumIndexed returns how many columns the engine currently indexes
// (columns of removed tables no longer count).
func (e *Engine) NumIndexed() int {
	n := 0
	for _, p := range e.profiles {
		if p != nil {
			n++
		}
	}
	return n
}

// overlaps computes the exact intersection size between the query
// column's distinct values and every indexed column sharing at least
// one value.
func (e *Engine) overlaps(q *table.ColumnProfile, exclude int) map[int32]int {
	counts := make(map[int32]int)
	for _, h := range q.ValueHashes() {
		for _, id := range e.postings[h] {
			if exclude >= 0 && e.columns[id].Table == exclude {
				continue
			}
			counts[id]++
		}
	}
	return counts
}

// TopKJoinable returns the k corpus columns with the largest exact
// value overlap with the query column (JOSIE's top-k overlap set
// similarity search). excludeTable removes a corpus table from the
// results (pass the query's own index when querying corpus members,
// or -1). Ties break toward higher Jaccard, then lower ids.
func (e *Engine) TopKJoinable(query *table.Table, col, k, excludeTable int) []Result {
	q := query.Profile(col)
	if q.Distinct == 0 || k <= 0 {
		return nil
	}
	counts := e.overlaps(q, excludeTable)
	out := make([]Result, 0, len(counts))
	for id, inter := range counts {
		out = append(out, e.result(id, q, inter))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Overlap != out[j].Overlap {
			return out[i].Overlap > out[j].Overlap
		}
		if out[i].Jaccard > out[j].Jaccard {
			return true
		}
		if out[i].Jaccard < out[j].Jaccard {
			return false
		}
		if out[i].Ref.Table != out[j].Ref.Table {
			return out[i].Ref.Table < out[j].Ref.Table
		}
		return out[i].Ref.Column < out[j].Ref.Column
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func (e *Engine) result(id int32, q *table.ColumnProfile, inter int) Result {
	union := q.Distinct + e.distinct[id] - inter
	r := Result{Ref: e.columns[id], Overlap: inter}
	if union > 0 {
		r.Jaccard = float64(inter) / float64(union)
	}
	if q.Distinct > 0 {
		r.Containment = float64(inter) / float64(q.Distinct)
	}
	return r
}

// MinUniqueDefault is the distinct-value bar a column must reach to be
// indexed, or to be looked up as a ranked query column: the paper's
// join-eligibility filter.
const MinUniqueDefault = join.DefaultMinUnique
