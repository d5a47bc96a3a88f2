// Package minhash implements MinHash signatures and LSH banding for
// approximate Jaccard search over column value sets — the
// internet-scale alternative (LSH Ensemble, Zhu et al. [35] in the
// paper) to the exact set-similarity join used in the main study. The
// study uses it to quantify what the approximation trades away: the
// ablation bench compares recall and runtime against the exact
// prefix-filter search.
package minhash

import (
	"sort"
)

// SignatureSize is the default number of MinHash permutations.
const SignatureSize = 128

// Signature is a MinHash sketch of a set.
type Signature []uint64

// hashPerm applies the i-th permutation to a base hash via a
// multiply-shift family (deterministic, no per-Signer state).
func hashPerm(h uint64, i int) uint64 {
	// Odd multipliers derived from splitmix64 of the index.
	z := uint64(i)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0x94D049BB133111EB
	z ^= z >> 27
	return (h ^ z) * (2*z + 1)
}

// Sketch builds a MinHash signature of size k from a set of 64-bit
// element hashes (e.g. a column profile's ValueHashes). An empty set
// yields a signature of all-ones maxima (never matches anything).
func Sketch(elements []uint64, k int) Signature {
	if k <= 0 {
		k = SignatureSize
	}
	sig := make(Signature, k)
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	for _, h := range elements {
		for i := 0; i < k; i++ {
			if v := hashPerm(h, i); v < sig[i] {
				sig[i] = v
			}
		}
	}
	return sig
}

// Similarity estimates the Jaccard similarity of the sketched sets as
// the fraction of agreeing signature positions.
func Similarity(a, b Signature) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	agree := 0
	for i := range a {
		if a[i] == b[i] {
			agree++
		}
	}
	return float64(agree) / float64(len(a))
}

// Index is an LSH index over signatures: signatures are split into
// bands of rows; two signatures collide when any band hashes equally.
// Bands and rows trade recall against candidate volume: with b bands
// of r rows, a pair of similarity s collides with probability
// 1-(1-s^r)^b.
type Index struct {
	bands, rows int
	sigs        []Signature
	tables      map[uint64][]int // band-hash -> signature ids
}

// NewIndex creates an LSH index. bands*rows must not exceed the
// signature size used with Add.
func NewIndex(bands, rows int) *Index {
	return &Index{bands: bands, rows: rows, tables: make(map[uint64][]int)}
}

// Add inserts a signature and returns its id. Ids are assigned
// sequentially.
func (ix *Index) Add(sig Signature) int {
	id := len(ix.sigs)
	ix.sigs = append(ix.sigs, sig)
	for b := 0; b < ix.bands; b++ {
		ix.tables[ix.bandHash(sig, b)] = append(ix.tables[ix.bandHash(sig, b)], id)
	}
	return id
}

func (ix *Index) bandHash(sig Signature, band int) uint64 {
	const prime64 = 1099511628211
	var h uint64 = 14695981039346656037
	h ^= uint64(band)
	h *= prime64
	for r := band * ix.rows; r < (band+1)*ix.rows && r < len(sig); r++ {
		h ^= sig[r]
		h *= prime64
	}
	return h
}

// Candidate is a query result.
type Candidate struct {
	ID int
	// Estimate is the signature-based Jaccard estimate.
	Estimate float64
}

// Query returns indexed signatures that collide with sig in at least
// one band and whose estimated similarity is at least minSim, sorted
// by estimate descending.
func (ix *Index) Query(sig Signature, minSim float64) []Candidate {
	seen := map[int]struct{}{}
	var out []Candidate
	for b := 0; b < ix.bands; b++ {
		for _, id := range ix.tables[ix.bandHash(sig, b)] {
			if _, ok := seen[id]; ok {
				continue
			}
			seen[id] = struct{}{}
			est := Similarity(sig, ix.sigs[id])
			if est >= minSim {
				out = append(out, Candidate{ID: id, Estimate: est})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Estimate > out[j].Estimate {
			return true
		}
		if out[i].Estimate < out[j].Estimate {
			return false
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// AllPairs reports every distinct indexed pair that collides in some
// band with estimated similarity ≥ minSim; pairs are (smaller id,
// larger id), sorted.
func (ix *Index) AllPairs(minSim float64) [][2]int {
	seen := map[[2]int]struct{}{}
	var out [][2]int
	for _, ids := range ix.tables {
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				a, b := ids[i], ids[j]
				if a == b {
					continue
				}
				if b < a {
					a, b = b, a
				}
				key := [2]int{a, b}
				if _, ok := seen[key]; ok {
					continue
				}
				seen[key] = struct{}{}
				if Similarity(ix.sigs[a], ix.sigs[b]) >= minSim {
					out = append(out, key)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
