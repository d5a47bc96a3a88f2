package classify

import (
	"math/rand"

	"ogdp/internal/join"
	"ogdp/internal/table"
	"ogdp/internal/values"
)

// JoinOracle supplies ground-truth labels for joinable pairs; in this
// repository the generator's provenance oracle (gen.Truth) plays the
// role of the paper's human annotators.
type JoinOracle interface {
	LabelJoin(p join.Pair) Label
}

// UnionOracle labels unionable table pairs.
type UnionOracle interface {
	LabelUnion(t1, t2 int) Label
}

// KeyCombo is the key/non-key combination of a join pair (§5.3.1).
type KeyCombo int

// Key combinations.
const (
	KeyKey KeyCombo = iota
	KeyNonkey
	NonkeyNonkey
)

var keyComboNames = [...]string{"key-key", "key-nonkey", "nonkey-nonkey"}

func (k KeyCombo) String() string {
	if int(k) < len(keyComboNames) {
		return keyComboNames[k]
	}
	return "invalid"
}

// ComboOf classifies a pair by its join columns' keyness.
func ComboOf(p join.Pair) KeyCombo {
	switch {
	case p.Key1 && p.Key2:
		return KeyKey
	case p.Key1 || p.Key2:
		return KeyNonkey
	default:
		return NonkeyNonkey
	}
}

// SizeBucket is the paper's T1 row-count bucket.
type SizeBucket int

// Size buckets: (10,100), [100,1000), >= 1000.
const (
	SizeSmall SizeBucket = iota
	SizeMedium
	SizeLarge
)

var sizeBucketNames = [...]string{"(10,100)", "[100,1000)", ">=1000"}

func (s SizeBucket) String() string {
	if int(s) < len(sizeBucketNames) {
		return sizeBucketNames[s]
	}
	return "invalid"
}

// bucketOf returns the bucket for a table with n rows, or ok=false for
// tables of 10 rows or fewer (excluded by the methodology).
func bucketOf(n int) (SizeBucket, bool) {
	switch {
	case n <= 10:
		return 0, false
	case n < 100:
		return SizeSmall, true
	case n < 1000:
		return SizeMedium, true
	default:
		return SizeLarge, true
	}
}

// JoinTypeGroup is the Table 10 data type grouping of a join column.
func JoinTypeGroup(t values.ColumnType) string {
	switch t {
	case values.ColIncrementalInt:
		return "incremental integer"
	case values.ColInt, values.ColFloat:
		return "integer"
	case values.ColCategorical, values.ColBool:
		return "categorical"
	case values.ColTimestamp:
		return "timestamp"
	case values.ColGeo:
		return "geo-spatial"
	default:
		return "string"
	}
}

// JoinTypeGroups lists the Table 10 groups in the paper's order.
var JoinTypeGroups = []string{
	"incremental integer", "categorical", "integer", "string",
	"timestamp", "geo-spatial",
}

// SampledPair is one annotated sample.
type SampledPair struct {
	Pair join.Pair
	// Bucket is the sampled T1's size bucket.
	Bucket SizeBucket
	// Combo is the key/non-key combination.
	Combo KeyCombo
	// IntraDataset reports whether both tables share a dataset.
	IntraDataset bool
	// TypeGroup is the Table 10 data type group of the join columns.
	TypeGroup string
	// Label is the oracle's annotation.
	Label Label
}

// SampleOptions tunes SampleJoinPairs.
type SampleOptions struct {
	// PerCell is the target number of samples per (bucket × combo)
	// cell; the paper used ~17 (≈ 50 per bucket, 150 per portal).
	PerCell int
	// MaxAttempts bounds the sampling loop; 0 means 200 × the total
	// target.
	MaxAttempts int
}

// SampleJoinPairs reproduces the paper's stratified sampling (§5.3.1):
// T1 uniform over joinable tables, c1 uniform over T1's joinable
// columns, T2 uniform over partners (taking the partner's
// highest-overlap column), same-schema pairs removed, with equal
// quotas per size bucket × key combination. Cells that the corpus
// cannot fill (e.g. no large nonkey-nonkey pairs) are left short.
func SampleJoinPairs(tables []*table.Table, pairs []join.Pair, oracle JoinOracle, opts SampleOptions, rng *rand.Rand) []SampledPair {
	if opts.PerCell <= 0 {
		opts.PerCell = 17
	}
	target := opts.PerCell * 9
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 200 * target
	}

	// Index joinable columns per table and partners per column.
	type colKey struct{ t, c int }
	partners := map[colKey][]join.Pair{}
	colsOf := map[int][]int{}
	seenCol := map[colKey]bool{}
	var joinableTables []int
	seenTable := map[int]bool{}
	for _, p := range pairs {
		a := colKey{p.T1, p.C1}
		b := colKey{p.T2, p.C2}
		partners[a] = append(partners[a], p)
		partners[b] = append(partners[b], p)
		for _, k := range []colKey{a, b} {
			if !seenCol[k] {
				seenCol[k] = true
				colsOf[k.t] = append(colsOf[k.t], k.c)
			}
			if !seenTable[k.t] {
				seenTable[k.t] = true
				joinableTables = append(joinableTables, k.t)
			}
		}
	}
	if len(joinableTables) == 0 {
		return nil
	}
	// Reduce each column's candidates, in place, to one pair per
	// partner table: the partner's highest-overlap column (the first
	// strict maximum), with partner tables in first-seen order.
	slot := map[int]int{} // partner table -> index in the reduced list
	for _, t := range joinableTables {
		for _, c := range colsOf[t] {
			k := colKey{t, c}
			cands := partners[k]
			best := cands[:0]
			clear(slot)
			for _, p := range cands {
				pt := p.T1
				if pt == t {
					pt = p.T2
				}
				if i, ok := slot[pt]; !ok {
					slot[pt] = len(best)
					best = append(best, p)
				} else if p.Jaccard > best[i].Jaccard {
					best[i] = p
				}
			}
			partners[k] = best
		}
	}

	quota := map[[2]int]int{}
	used := map[[4]int]bool{}
	var out []SampledPair

	for attempt := 0; attempt < opts.MaxAttempts && len(out) < target; attempt++ {
		t1 := joinableTables[rng.Intn(len(joinableTables))]
		bucket, ok := bucketOf(tables[t1].NumRows())
		if !ok {
			continue
		}
		cols := colsOf[t1]
		c1 := cols[rng.Intn(len(cols))]
		best := partners[colKey{t1, c1}]
		p := best[rng.Intn(len(best))]
		// Same-schema pairs are covered by the unionability analysis.
		if tables[p.T1].SchemaKey() == tables[p.T2].SchemaKey() {
			continue
		}
		combo := ComboOf(p)
		cell := [2]int{int(bucket), int(combo)}
		if quota[cell] >= opts.PerCell {
			continue
		}
		key := [4]int{p.T1, p.C1, p.T2, p.C2}
		if used[key] {
			continue
		}
		used[key] = true
		quota[cell]++

		sp := SampledPair{
			Pair:         p,
			Bucket:       bucket,
			Combo:        combo,
			IntraDataset: tables[p.T1].DatasetID != "" && tables[p.T1].DatasetID == tables[p.T2].DatasetID,
			TypeGroup:    JoinTypeGroup(tables[p.T1].Profile(p.C1).Type),
		}
		if oracle != nil {
			sp.Label = oracle.LabelJoin(p)
		}
		out = append(out, sp)
	}
	return out
}

// LabelDist is one row of Tables 7–10: the distribution of labels in a
// group of samples.
type LabelDist struct {
	Group  string
	N      int
	UAcc   float64
	RAcc   float64
	Useful float64
}

// Accidental is the total accidental fraction.
func (d LabelDist) Accidental() float64 { return d.UAcc + d.RAcc }

func distOf(group string, samples []SampledPair) LabelDist {
	d := LabelDist{Group: group}
	for _, s := range samples {
		switch s.Label {
		case LabelUAcc:
			d.UAcc++
		case LabelRAcc:
			d.RAcc++
		case LabelUseful:
			d.Useful++
		default:
			continue
		}
		d.N++
	}
	if d.N > 0 {
		d.UAcc /= float64(d.N)
		d.RAcc /= float64(d.N)
		d.Useful /= float64(d.N)
	}
	return d
}

// Overall aggregates all samples (Table 7).
func Overall(samples []SampledPair) LabelDist { return distOf("all", samples) }

// ByDatasetLocality aggregates per inter/intra dataset (Table 8),
// returned as [inter, intra].
func ByDatasetLocality(samples []SampledPair) [2]LabelDist {
	var inter, intra []SampledPair
	for _, s := range samples {
		if s.IntraDataset {
			intra = append(intra, s)
		} else {
			inter = append(inter, s)
		}
	}
	return [2]LabelDist{distOf("inter", inter), distOf("intra", intra)}
}

// ByKeyCombo aggregates per key combination (Table 9), indexed by
// KeyCombo.
func ByKeyCombo(samples []SampledPair) [3]LabelDist {
	var groups [3][]SampledPair
	for _, s := range samples {
		groups[s.Combo] = append(groups[s.Combo], s)
	}
	var out [3]LabelDist
	for i := range groups {
		out[i] = distOf(KeyCombo(i).String(), groups[i])
	}
	return out
}

// ByTypeGroup aggregates per join-column data type (Table 10), in
// JoinTypeGroups order.
func ByTypeGroup(samples []SampledPair) []LabelDist {
	groups := map[string][]SampledPair{}
	for _, s := range samples {
		groups[s.TypeGroup] = append(groups[s.TypeGroup], s)
	}
	out := make([]LabelDist, 0, len(JoinTypeGroups))
	for _, g := range JoinTypeGroups {
		out = append(out, distOf(g, groups[g]))
	}
	return out
}

// BySizeBucket aggregates per T1 size bucket (the supplementary
// analysis the paper reports finding no clear correlation in).
func BySizeBucket(samples []SampledPair) [3]LabelDist {
	var groups [3][]SampledPair
	for _, s := range samples {
		groups[s.Bucket] = append(groups[s.Bucket], s)
	}
	var out [3]LabelDist
	for i := range groups {
		out[i] = distOf(SizeBucket(i).String(), groups[i])
	}
	return out
}
