package classify

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"ogdp/internal/join"
	"ogdp/internal/table"
	"ogdp/internal/union"
	"ogdp/internal/values"
)

// fixedOracle labels by a map of (t1,c1,t2,c2).
type fixedOracle map[[4]int]Label

func (o fixedOracle) LabelJoin(p join.Pair) Label {
	if l, ok := o[[4]int{p.T1, p.C1, p.T2, p.C2}]; ok {
		return l
	}
	return LabelUAcc
}

// corpus builds tables with controlled joinability: n tables sharing a
// key column domain 1..30 plus a payload.
func corpus(n int, rows int) []*table.Table {
	var out []*table.Table
	for i := 0; i < n; i++ {
		data := make([][]string, rows)
		for r := range data {
			data[r] = []string{strconv.Itoa(r + 1), fmt.Sprintf("p%d-%d", i, r)}
		}
		t := table.FromRows(fmt.Sprintf("t%d.csv", i), []string{"id", fmt.Sprintf("payload%d", i)}, data)
		t.DatasetID = fmt.Sprintf("ds%d", i/2) // two tables per dataset
		out = append(out, t)
	}
	return out
}

func TestComboOf(t *testing.T) {
	cases := []struct {
		p    join.Pair
		want KeyCombo
	}{
		{join.Pair{Key1: true, Key2: true}, KeyKey},
		{join.Pair{Key1: true}, KeyNonkey},
		{join.Pair{Key2: true}, KeyNonkey},
		{join.Pair{}, NonkeyNonkey},
	}
	for _, c := range cases {
		if got := ComboOf(c.p); got != c.want {
			t.Errorf("ComboOf(%+v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		n    int
		want SizeBucket
		ok   bool
	}{
		{5, 0, false}, {10, 0, false}, {11, SizeSmall, true}, {99, SizeSmall, true},
		{100, SizeMedium, true}, {999, SizeMedium, true}, {1000, SizeLarge, true},
	}
	for _, c := range cases {
		got, ok := bucketOf(c.n)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("bucketOf(%d) = (%v, %v)", c.n, got, ok)
		}
	}
}

func TestJoinTypeGroup(t *testing.T) {
	cases := []struct {
		t    values.ColumnType
		want string
	}{
		{values.ColIncrementalInt, "incremental integer"},
		{values.ColInt, "integer"},
		{values.ColFloat, "integer"},
		{values.ColCategorical, "categorical"},
		{values.ColString, "string"},
		{values.ColTimestamp, "timestamp"},
		{values.ColGeo, "geo-spatial"},
	}
	for _, c := range cases {
		if got := JoinTypeGroup(c.t); got != c.want {
			t.Errorf("JoinTypeGroup(%v) = %q", c.t, got)
		}
	}
}

func TestSampleJoinPairs(t *testing.T) {
	tables := corpus(10, 50)
	pairs := join.Find(tables, join.Options{}).Pairs
	if len(pairs) == 0 {
		t.Fatal("no pairs in synthetic corpus")
	}
	oracle := fixedOracle{}
	rng := rand.New(rand.NewSource(5))
	samples := SampleJoinPairs(tables, pairs, oracle, SampleOptions{PerCell: 3}, rng)
	if len(samples) == 0 {
		t.Fatal("no samples drawn")
	}
	// All tables have the same schema pairwise? No: payload column names
	// differ, so schemas differ and pairs survive. Verify fields are
	// populated and no duplicates.
	seen := map[[4]int]bool{}
	for _, s := range samples {
		k := [4]int{s.Pair.T1, s.Pair.C1, s.Pair.T2, s.Pair.C2}
		if seen[k] {
			t.Error("duplicate sample")
		}
		seen[k] = true
		if s.Bucket != SizeSmall {
			t.Errorf("bucket = %v for 50-row tables", s.Bucket)
		}
		if s.Combo != KeyKey {
			t.Errorf("combo = %v for key-key corpus", s.Combo)
		}
	}
}

func TestSampleExcludesSameSchema(t *testing.T) {
	// Identical schemas: every pair must be filtered out.
	var tables []*table.Table
	for i := 0; i < 4; i++ {
		var rows [][]string
		for r := 0; r < 40; r++ {
			rows = append(rows, []string{strconv.Itoa(r + 1), "x"})
		}
		tables = append(tables, table.FromRows(fmt.Sprintf("t%d.csv", i), []string{"id", "v"}, rows))
	}
	pairs := join.Find(tables, join.Options{}).Pairs
	if len(pairs) == 0 {
		t.Fatal("expected joinable pairs")
	}
	samples := SampleJoinPairs(tables, pairs, fixedOracle{}, SampleOptions{PerCell: 2, MaxAttempts: 1000}, rand.New(rand.NewSource(1)))
	if len(samples) != 0 {
		t.Errorf("same-schema pairs sampled: %d", len(samples))
	}
}

func TestSampleQuotaRespected(t *testing.T) {
	tables := corpus(20, 50)
	pairs := join.Find(tables, join.Options{}).Pairs
	samples := SampleJoinPairs(tables, pairs, fixedOracle{}, SampleOptions{PerCell: 2}, rand.New(rand.NewSource(2)))
	counts := map[[2]int]int{}
	for _, s := range samples {
		counts[[2]int{int(s.Bucket), int(s.Combo)}]++
	}
	for cell, n := range counts {
		if n > 2 {
			t.Errorf("cell %v has %d samples, quota 2", cell, n)
		}
	}
}

func TestAggregations(t *testing.T) {
	samples := []SampledPair{
		{Label: LabelUAcc, Combo: KeyKey, Bucket: SizeSmall, IntraDataset: false, TypeGroup: "integer"},
		{Label: LabelRAcc, Combo: KeyNonkey, Bucket: SizeMedium, IntraDataset: true, TypeGroup: "categorical"},
		{Label: LabelUseful, Combo: KeyKey, Bucket: SizeSmall, IntraDataset: true, TypeGroup: "categorical"},
		{Label: LabelUseful, Combo: NonkeyNonkey, Bucket: SizeLarge, IntraDataset: false, TypeGroup: "string"},
	}
	all := Overall(samples)
	if all.N != 4 || all.Useful != 0.5 || all.Accidental() != 0.5 {
		t.Errorf("overall = %+v", all)
	}
	loc := ByDatasetLocality(samples)
	if loc[0].N != 2 || loc[1].N != 2 {
		t.Errorf("locality = %+v", loc)
	}
	if loc[1].Useful != 0.5 {
		t.Errorf("intra useful = %g", loc[1].Useful)
	}
	combos := ByKeyCombo(samples)
	if combos[KeyKey].N != 2 || combos[KeyKey].Useful != 0.5 {
		t.Errorf("key-key = %+v", combos[KeyKey])
	}
	types := ByTypeGroup(samples)
	foundCat := false
	for _, d := range types {
		if d.Group == "categorical" {
			foundCat = true
			if d.N != 2 || d.Useful != 0.5 {
				t.Errorf("categorical = %+v", d)
			}
		}
	}
	if !foundCat {
		t.Error("categorical group missing")
	}
	buckets := BySizeBucket(samples)
	if buckets[SizeSmall].N != 2 {
		t.Errorf("size buckets = %+v", buckets)
	}
}

func TestLabelString(t *testing.T) {
	if LabelUAcc.String() != "U-Acc" || LabelUseful.String() != "useful" {
		t.Error("label names wrong")
	}
	if !LabelRAcc.Accidental() || LabelUseful.Accidental() {
		t.Error("Accidental() wrong")
	}
}

func TestPredictor(t *testing.T) {
	tables := corpus(4, 50)
	pairs := join.Find(tables, join.Options{}).Pairs
	if len(pairs) == 0 {
		t.Fatal("no pairs")
	}
	p := Predictor{}
	// id columns are incremental integers: the predictor must reject.
	for _, pr := range pairs {
		if p.Predict(tables, pr) {
			t.Errorf("incremental integer pair predicted useful: %+v", pr)
		}
	}
	// A categorical key-key same-dataset pair should be accepted.
	var species []string
	for i := 0; i < 30; i++ {
		species = append(species, fmt.Sprintf("Species %c%d", 'A'+i%26, i))
	}
	a := table.New("a.csv", []string{"species"}, [][]string{species})
	b := table.New("b.csv", []string{"species"}, [][]string{species})
	a.DatasetID, b.DatasetID = "d", "d"
	pr := join.Find([]*table.Table{a, b}, join.Options{}).Pairs
	if len(pr) != 1 {
		t.Fatal("expected one pair")
	}
	if !p.Predict([]*table.Table{a, b}, pr[0]) {
		t.Errorf("string key-key same-dataset pair rejected: %+v", pr[0])
	}
}

func TestPredictorEvaluate(t *testing.T) {
	tables := corpus(4, 50)
	samples := []SampledPair{
		{Pair: join.Pair{T1: 0, C1: 0, T2: 1, C2: 0, Key1: true, Key2: true}, Label: LabelUseful},
		{Pair: join.Pair{T1: 2, C1: 0, T2: 3, C2: 0, Key1: true, Key2: true}, Label: LabelUAcc},
	}
	e := Predictor{}.Evaluate(tables, samples)
	if e.TP+e.FP+e.TN+e.FN != 2 {
		t.Errorf("evaluation counts = %+v", e)
	}
	be := BaselineOverlapOnly{}.Evaluate(tables, samples)
	if be.Precision() != 0.5 {
		t.Errorf("baseline precision = %g", be.Precision())
	}
	var zero Evaluation
	if zero.Precision() != 0 || zero.Recall() != 0 {
		t.Error("zero evaluation division")
	}
}

type fixedUnionOracle struct{}

func (fixedUnionOracle) LabelUnion(t1, t2 int) Label {
	if t1%2 == 0 {
		return LabelUseful
	}
	return LabelUAcc
}

func TestSampleUnionPairs(t *testing.T) {
	var tables []*table.Table
	for i := 0; i < 6; i++ {
		tb := table.FromRows(fmt.Sprintf("t%d", i), []string{"year", "value"}, [][]string{{"2020", "1.5"}})
		tb.DatasetID = fmt.Sprintf("d%d", i%3)
		tables = append(tables, tb)
	}
	ua := union.Find(tables)
	samples := SampleUnionPairs(ua, fixedUnionOracle{}, 5, rand.New(rand.NewSource(3)))
	if len(samples) == 0 {
		t.Fatal("no union samples")
	}
	for _, s := range samples {
		if s.T1 >= s.T2 {
			t.Error("unordered sample")
		}
	}
	d := UnionLabelDist(samples)
	if d.N != len(samples) {
		t.Errorf("dist N = %d", d.N)
	}
	if got := SampleUnionPairs(&union.Analysis{}, nil, 5, rand.New(rand.NewSource(1))); got != nil {
		t.Error("empty analysis should produce no samples")
	}
}
