package minhash

import (
	"math"
	"math/rand"
	"testing"

	"ogdp/internal/table"
)

// sketchSet adapts the tests' map-based element sets to Sketch's
// hash-slice input.
func sketchSet(m map[uint64]int, k int) Signature {
	hs := make([]uint64, 0, len(m))
	for h := range m {
		hs = append(hs, h)
	}
	return Sketch(hs, k)
}

// setOf builds a hashed element set from strings.
func setOf(vals ...string) map[uint64]int {
	m := make(map[uint64]int, len(vals))
	for _, v := range vals {
		m[table.HashValue(v)]++
	}
	return m
}

func randomSets(rng *rand.Rand, n, overlap int) (a, b map[uint64]int) {
	a = make(map[uint64]int)
	b = make(map[uint64]int)
	for i := 0; i < overlap; i++ {
		h := rng.Uint64()
		a[h] = 1
		b[h] = 1
	}
	for len(a) < n {
		a[rng.Uint64()] = 1
	}
	for len(b) < n {
		b[rng.Uint64()] = 1
	}
	return a, b
}

func TestSimilarityEstimatesJaccard(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, wantJ := range []float64{0.0, 0.3, 0.5, 0.9, 1.0} {
		n := 500
		overlap := int(wantJ * float64(n) * 2 / (1 + wantJ)) // |A∩B| for |A|=|B|=n
		a, b := randomSets(rng, n, overlap)
		trueJ := jaccardExact(a, b)
		est := Similarity(sketchSet(a, 256), sketchSet(b, 256))
		if math.Abs(est-trueJ) > 0.12 {
			t.Errorf("target %g: estimate %.3f vs true %.3f", wantJ, est, trueJ)
		}
	}
}

func jaccardExact(a, b map[uint64]int) float64 {
	inter := 0
	for h := range a {
		if _, ok := b[h]; ok {
			inter++
		}
	}
	u := len(a) + len(b) - inter
	if u == 0 {
		return 0
	}
	return float64(inter) / float64(u)
}

func TestIdenticalSetsSimilarityOne(t *testing.T) {
	s := setOf("a", "b", "c", "d", "e")
	if got := Similarity(sketchSet(s, 64), sketchSet(s, 64)); got != 1 {
		t.Errorf("identical sets estimate %g", got)
	}
}

func TestEmptyAndMismatched(t *testing.T) {
	empty := sketchSet(nil, 32)
	s := sketchSet(setOf("a"), 32)
	if Similarity(empty, s) != 0 {
		t.Error("empty vs non-empty should estimate 0")
	}
	if Similarity(s, sketchSet(setOf("a"), 64)) != 0 {
		t.Error("mismatched sizes should estimate 0")
	}
	if Similarity(nil, nil) != 0 {
		t.Error("nil signatures should estimate 0")
	}
}

func TestSketchDeterministic(t *testing.T) {
	s := setOf("x", "y", "z")
	a := sketchSet(s, 64)
	b := sketchSet(s, 64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Sketch is not deterministic")
		}
	}
}

func TestIndexFindsHighSimilarityPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ix := NewIndex(16, 8) // 16 bands × 8 rows = 128 positions

	// Two near-identical sets plus unrelated noise sets.
	base, near := randomSets(rng, 300, 285) // J ≈ 0.9
	ids := []int{ix.Add(sketchSet(base, 128)), ix.Add(sketchSet(near, 128))}
	for i := 0; i < 20; i++ {
		noise, _ := randomSets(rng, 300, 0)
		ix.Add(sketchSet(noise, 128))
	}

	cands := ix.Query(sketchSet(base, 128), 0.8)
	foundSelf, foundNear := false, false
	for _, c := range cands {
		if c.ID == ids[0] {
			foundSelf = true
		}
		if c.ID == ids[1] {
			foundNear = true
		}
	}
	if !foundSelf || !foundNear {
		t.Errorf("high-similarity pair missed: %+v", cands)
	}

	pairs := ix.AllPairs(0.8)
	want := [2]int{ids[0], ids[1]}
	ok := false
	for _, p := range pairs {
		if p == want {
			ok = true
		}
	}
	if !ok {
		t.Errorf("AllPairs missed %v: %v", want, pairs)
	}
}

func TestIndexRejectsLowSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ix := NewIndex(16, 8)
	var sigs []Signature
	for i := 0; i < 30; i++ {
		s, _ := randomSets(rng, 200, 0)
		sig := sketchSet(s, 128)
		sigs = append(sigs, sig)
		ix.Add(sig)
	}
	for _, p := range ix.AllPairs(0.8) {
		t.Errorf("unrelated sets reported similar: %v (est %.2f)", p, Similarity(sigs[p[0]], sigs[p[1]]))
	}
}

// TestRecallAgainstExact measures LSH recall of true J ≥ 0.9 pairs on
// a synthetic workload; the banded index must recover nearly all.
func TestRecallAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var sets []map[uint64]int
	// 15 clusters of 3 near-duplicate sets each.
	for c := 0; c < 15; c++ {
		base, _ := randomSets(rng, 400, 0)
		for v := 0; v < 3; v++ {
			s := make(map[uint64]int, len(base))
			for h := range base {
				s[h] = 1
			}
			// Perturb ~1.5% of elements (deletions differ per variant
			// because of map iteration order, so the effective distance
			// between two variants is about twice this).
			drop := 6
			for h := range s {
				if drop == 0 {
					break
				}
				delete(s, h)
				drop--
			}
			for i := 0; i < 6; i++ {
				s[rng.Uint64()] = 1
			}
			sets = append(sets, s)
		}
	}
	ix := NewIndex(32, 4)
	for _, s := range sets {
		ix.Add(sketchSet(s, 128))
	}
	got := map[[2]int]bool{}
	for _, p := range ix.AllPairs(0.85) {
		got[p] = true
	}
	trueHigh, hit := 0, 0
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			if jaccardExact(sets[i], sets[j]) >= 0.9 {
				trueHigh++
				if got[[2]int{i, j}] {
					hit++
				}
			}
		}
	}
	if trueHigh == 0 {
		t.Fatal("workload has no true high-similarity pairs")
	}
	recall := float64(hit) / float64(trueHigh)
	if recall < 0.9 {
		t.Errorf("LSH recall %.2f (%d/%d), want >= 0.9", recall, hit, trueHigh)
	}
}

func BenchmarkSketch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s, _ := randomSets(rng, 1000, 0)
	hs := make([]uint64, 0, len(s))
	for h := range s {
		hs = append(hs, h)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sketch(hs, 128)
	}
}

func BenchmarkQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ix := NewIndex(16, 8)
	var probe Signature
	for i := 0; i < 500; i++ {
		s, _ := randomSets(rng, 300, 0)
		sig := sketchSet(s, 128)
		if i == 0 {
			probe = sig
		}
		ix.Add(sig)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Query(probe, 0.8)
	}
}
