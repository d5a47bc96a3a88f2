package classify_test

import (
	"math/rand"
	"reflect"
	"testing"

	"ogdp/internal/classify"
	"ogdp/internal/gen"
	"ogdp/internal/join"
	"ogdp/internal/table"
)

// perAttemptSample is SampleJoinPairs as it was when every attempt
// regrouped the drawn column's candidates into a fresh best-partner
// map; SampleJoinPairs now groups each column once and must draw the
// same samples with the same rng calls.
func perAttemptSample(tables []*table.Table, pairs []join.Pair, oracle classify.JoinOracle, opts classify.SampleOptions, rng *rand.Rand) []classify.SampledPair {
	if opts.PerCell <= 0 {
		opts.PerCell = 17
	}
	target := opts.PerCell * 9
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 200 * target
	}

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

	quota := map[[2]int]int{}
	used := map[[4]int]bool{}
	var out []classify.SampledPair

	for attempt := 0; attempt < opts.MaxAttempts && len(out) < target; attempt++ {
		t1 := joinableTables[rng.Intn(len(joinableTables))]
		n := tables[t1].NumRows()
		if n <= 10 {
			continue
		}
		bucket := classify.SizeLarge
		switch {
		case n < 100:
			bucket = classify.SizeSmall
		case n < 1000:
			bucket = classify.SizeMedium
		}
		cols := colsOf[t1]
		c1 := cols[rng.Intn(len(cols))]
		cands := partners[colKey{t1, c1}]
		if len(cands) == 0 {
			continue
		}
		best := map[int]join.Pair{}
		var partnerTables []int
		for _, p := range cands {
			pt := p.T1
			if pt == t1 {
				pt = p.T2
			}
			if cur, ok := best[pt]; !ok || p.Jaccard > cur.Jaccard {
				if !ok {
					partnerTables = append(partnerTables, pt)
				}
				best[pt] = p
			}
		}
		t2 := partnerTables[rng.Intn(len(partnerTables))]
		p := best[t2]
		if tables[p.T1].SchemaKey() == tables[p.T2].SchemaKey() {
			continue
		}
		combo := classify.ComboOf(p)
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

		sp := classify.SampledPair{
			Pair:         p,
			Bucket:       bucket,
			Combo:        combo,
			IntraDataset: tables[p.T1].DatasetID != "" && tables[p.T1].DatasetID == tables[p.T2].DatasetID,
			TypeGroup:    classify.JoinTypeGroup(tables[p.T1].Profile(p.C1).Type),
		}
		if oracle != nil {
			sp.Label = oracle.LabelJoin(p)
		}
		out = append(out, sp)
	}
	return out
}

// densePairs draws n random pairs over tables' columns with Jaccard
// values from a set of three, so columns have many partner tables and
// partners have tied columns.
func densePairs(tables []*table.Table, n int, rng *rand.Rand) []join.Pair {
	out := make([]join.Pair, n)
	for i := range out {
		t1, t2 := rng.Intn(len(tables)), rng.Intn(len(tables))
		out[i] = join.Pair{
			T1: t1, C1: rng.Intn(tables[t1].NumCols()),
			T2: t2, C2: rng.Intn(tables[t2].NumCols()),
			Jaccard: []float64{0.9, 0.95, 1}[rng.Intn(3)],
			Key1:    rng.Intn(2) == 0,
			Key2:    rng.Intn(2) == 0,
		}
	}
	return out
}

// TestSampleJoinPairsMatchesPerAttemptGrouping holds SampleJoinPairs
// to perAttemptSample on all four portals at three seeds: over the
// joinable pairs at the paper's threshold and at 0.7, and over dense
// random pair lists full of partner tables and Jaccard ties. Equal
// next draws show both consumed the rng identically.
func TestSampleJoinPairsMatchesPerAttemptGrouping(t *testing.T) {
	for _, prof := range gen.Profiles() {
		for _, seed := range []int64{1, 2, 3} {
			c := gen.Generate(prof, 0.05, seed)
			tables := c.Tables()
			oracle := gen.Truth(c)
			sets := map[string][]join.Pair{
				"Jaccard 0.9": join.Find(tables, join.Options{}).Pairs,
				"Jaccard 0.7": join.Find(tables, join.Options{MinJaccard: 0.7}).Pairs,
				"dense":       densePairs(tables, 20*len(tables), rand.New(rand.NewSource(seed))),
			}
			for name, pairs := range sets {
				rngA, rngB := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				got := classify.SampleJoinPairs(tables, pairs, oracle, classify.SampleOptions{}, rngA)
				want := perAttemptSample(tables, pairs, oracle, classify.SampleOptions{}, rngB)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s seed %d %s: %d samples, per-attempt grouping gives %d (or they differ)", prof.Name, seed, name, len(got), len(want))
				}
				if a, b := rngA.Int63(), rngB.Int63(); a != b {
					t.Errorf("%s seed %d %s: rng advanced differently", prof.Name, seed, name)
				}
			}
		}
	}
}
