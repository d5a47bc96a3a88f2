package rank

import (
	"sort"

	"ogdp/internal/classify"
	"ogdp/internal/join"
	"ogdp/internal/table"
	"ogdp/internal/union"
)

// JoinWeights weights the join-ranking signals. The zero value is
// replaced by DefaultJoinWeights.
type JoinWeights struct {
	// SameDataset rewards intra-dataset pairs (the strongest useful
	// signal in Table 8).
	SameDataset float64
	// KeyKey and KeyNonkey reward key involvement (Table 9).
	KeyKey    float64
	KeyNonkey float64
	// TypeWeight scales the per-type prior from Table 10.
	TypeWeight float64
	// ExpansionPenalty is subtracted per doubling of the expansion
	// ratio beyond 1 (high expansions mark accidental pairs, §5.2).
	ExpansionPenalty float64
	// Jaccard weights the raw overlap itself.
	Jaccard float64
}

// DefaultJoinWeights approximates the label frequencies of Tables 8-10.
func DefaultJoinWeights() JoinWeights {
	return JoinWeights{
		SameDataset:      0.35,
		KeyKey:           0.25,
		KeyNonkey:        0.12,
		TypeWeight:       0.20,
		ExpansionPenalty: 0.08,
		Jaccard:          0.10,
	}
}

// typePrior is the Table 10 usefulness prior per join-column type
// group, normalized to [0, 1].
var typePrior = map[string]float64{
	"incremental integer": 0.0,
	"categorical":         1.0,
	"integer":             0.5,
	"string":              0.7,
	"timestamp":           0.6,
	"geo-spatial":         0.8,
}

// ScoredJoin is a join pair with its ranking score.
type ScoredJoin struct {
	Pair  join.Pair
	Score float64
}

// ScoreJoin scores one pair in [roughly] 0..1; higher means more
// likely useful.
func ScoreJoin(tables []*table.Table, p join.Pair, w JoinWeights) float64 {
	if w == (JoinWeights{}) {
		w = DefaultJoinWeights()
	}
	var s float64
	t1, t2 := tables[p.T1], tables[p.T2]
	if t1.DatasetID != "" && t1.DatasetID == t2.DatasetID {
		s += w.SameDataset
	}
	switch classify.ComboOf(p) {
	case classify.KeyKey:
		s += w.KeyKey
	case classify.KeyNonkey:
		s += w.KeyNonkey
	}
	s += w.TypeWeight * typePrior[classify.JoinTypeGroup(t1.Profile(p.C1).Type)]
	s += w.Jaccard * p.Jaccard
	// Penalize growth: log2 of the expansion beyond 1.
	exp := p.Expansion
	for exp > 1 && w.ExpansionPenalty > 0 {
		s -= w.ExpansionPenalty
		exp /= 2
	}
	return s
}

// RankJoins scores and sorts all pairs, best first. Ties break on
// Jaccard, then on pair identity for determinism.
func RankJoins(tables []*table.Table, pairs []join.Pair, w JoinWeights) []ScoredJoin {
	out := make([]ScoredJoin, len(pairs))
	for i, p := range pairs {
		out[i] = ScoredJoin{Pair: p, Score: ScoreJoin(tables, p, w)}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score > out[j].Score {
			return true
		}
		if out[i].Score < out[j].Score {
			return false
		}
		return out[i].Pair.Jaccard > out[j].Pair.Jaccard
	})
	return out
}

// ScoredUnion is a union candidate with its relatedness score.
type ScoredUnion struct {
	// Table indexes the candidate in the analyzed corpus.
	Table int
	Score float64
}

// UnionWeights weights the union-ranking signals.
type UnionWeights struct {
	// SameDataset rewards candidates published under the target's
	// dataset.
	SameDataset float64
	// NameOverlap rewards shared table-name tokens (periodic series
	// share a stem: "housing-starts-2019" vs "housing-starts-2020").
	NameOverlap float64
	// ColumnOverlap rewards per-column value overlap with the target:
	// a candidate that differs in only one partition dimension shares
	// most column domains.
	ColumnOverlap float64
}

// DefaultUnionWeights balances the three relatedness signals.
func DefaultUnionWeights() UnionWeights {
	return UnionWeights{SameDataset: 0.3, NameOverlap: 0.2, ColumnOverlap: 0.5}
}

// RankUnionCandidates ranks the other members of target's unionable
// group by relatedness to target, best first. It returns nil when the
// target is not unionable.
func RankUnionCandidates(a *union.Analysis, target int, w UnionWeights) []ScoredUnion {
	if w == (UnionWeights{}) {
		w = DefaultUnionWeights()
	}
	var group *union.Group
	for i := range a.Groups {
		for _, t := range a.Groups[i].Tables {
			if t == target {
				group = &a.Groups[i]
				break
			}
		}
		if group != nil {
			break
		}
	}
	if group == nil {
		return nil
	}
	tt := a.Tables[target]
	var out []ScoredUnion
	for _, ci := range group.Tables {
		if ci == target {
			continue
		}
		cand := a.Tables[ci]
		var s float64
		if tt.DatasetID != "" && tt.DatasetID == cand.DatasetID {
			s += w.SameDataset
		}
		s += w.NameOverlap * nameOverlap(tt.Name, cand.Name)
		s += w.ColumnOverlap * columnOverlap(tt, cand)
		out = append(out, ScoredUnion{Table: ci, Score: s})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score > out[j].Score {
			return true
		}
		if out[i].Score < out[j].Score {
			return false
		}
		return out[i].Table < out[j].Table
	})
	return out
}

// nameOverlap is the Jaccard similarity of the tables' name tokens
// (split on non-alphanumerics, numbers dropped so periods don't
// dominate).
func nameOverlap(a, b string) float64 {
	ta := nameTokens(a)
	tb := nameTokens(b)
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	inter := 0
	for tok := range ta {
		if _, ok := tb[tok]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(ta)+len(tb)-inter)
}

// nameTokens is the table.NameTokens set of a table's file name,
// without the "csv" extension token every name shares.
func nameTokens(name string) map[string]struct{} {
	out := map[string]struct{}{}
	for _, t := range table.NameTokens(name) {
		if t != "csv" {
			out[t] = struct{}{}
		}
	}
	return out
}

// columnOverlap averages the per-column Jaccard similarity of distinct
// value sets between two same-schema tables. Candidates partitioned
// along fewer dimensions from the target share more column domains and
// score higher.
func columnOverlap(a, b *table.Table) float64 {
	n := a.NumCols()
	if n == 0 || b.NumCols() != n {
		return 0
	}
	var sum float64
	for c := 0; c < n; c++ {
		ha := a.Profile(c).ValueHashes()
		hb := b.Profile(c).ValueHashes()
		inter := table.IntersectSize(ha, hb)
		unionSize := len(ha) + len(hb) - inter
		if unionSize > 0 {
			sum += float64(inter) / float64(unionSize)
		}
	}
	return sum / float64(n)
}
