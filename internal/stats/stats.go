// Package stats provides the descriptive statistics used by the study:
// means, medians, percentiles, histograms, and letter-value summaries
// (the boxen-plot statistic behind Figure 8 of the paper).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// ApproxEq reports whether two floats are equal within a small
// absolute or relative tolerance (1e-9). It is the epsilon helper the
// floatcmp analyzer points score/threshold code at: the study's
// uniqueness ratios and Jaccard similarities are accumulated floats,
// so exact ==/!= would flip on rounding noise that never shows up in
// the printed tables.
func ApproxEq(a, b float64) bool {
	if a == b { //lint:allow(floatcmp) fast path; also makes equal infinities compare equal
		return true
	}
	const tol = 1e-9
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. xs need not be sorted. It
// returns 0 for an empty sample.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// percentileSorted is Percentile on an already-sorted sample.
func percentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median is Percentile(xs, 50).
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MedianInts returns the median of an integer sample as a float.
func MedianInts(xs []int) float64 {
	return Median(Floats(xs))
}

// Floats converts an integer sample to float64s.
func Floats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// Bucket is one histogram bucket covering [Lo, Hi).
type Bucket struct {
	Lo, Hi float64
	Count  int
}

// Histogram bins xs into the buckets delimited by bounds. A value x
// falls into bucket i when bounds[i] <= x < bounds[i+1]; values below
// bounds[0] and at or above bounds[len-1] are clamped into the first
// and last bucket respectively.
func Histogram(xs []float64, bounds []float64) []Bucket {
	if len(bounds) < 2 {
		return nil
	}
	buckets := make([]Bucket, len(bounds)-1)
	for i := range buckets {
		buckets[i].Lo = bounds[i]
		buckets[i].Hi = bounds[i+1]
	}
	for _, x := range xs {
		i := sort.SearchFloat64s(bounds, x)
		// SearchFloat64s returns the insertion point; adjust to bucket index.
		if i < len(bounds) && bounds[i] == x { //lint:allow(floatcmp) exact on purpose: SearchFloat64s found x at this bound
			// x equals a bound: belongs to the bucket starting at that bound.
		} else {
			i--
		}
		if i < 0 {
			i = 0
		}
		if i > len(buckets)-1 {
			i = len(buckets) - 1
		}
		buckets[i].Count++
	}
	return buckets
}

// LetterValues is the letter-value summary used by boxen plots
// (Figure 8): the median plus successive "letter" quantile pairs at
// depths 1/4, 1/8, 1/16, ... from each tail.
type LetterValues struct {
	Median float64
	// Pairs[i] holds the lower and upper letter values at depth
	// 1/2^(i+2): Pairs[0] is the quartile box, Pairs[1] the eighths,
	// and so on.
	Pairs [][2]float64
}

// LetterValueSummary computes letter values down to boxes that would
// contain fewer than minBox points (minBox defaults to 5 when <= 0).
func LetterValueSummary(xs []float64, minBox int) LetterValues {
	if minBox <= 0 {
		minBox = 5
	}
	lv := LetterValues{}
	if len(xs) == 0 {
		return lv
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	lv.Median = percentileSorted(sorted, 50)
	depth := 0.25
	for float64(len(sorted))*depth >= float64(minBox) && depth > 1e-9 {
		lo := percentileSorted(sorted, depth*100)
		hi := percentileSorted(sorted, (1-depth)*100)
		lv.Pairs = append(lv.Pairs, [2]float64{lo, hi})
		depth /= 2
	}
	return lv
}

// FormatCount renders n with SI-style suffixes the way the paper's
// tables do (e.g. 4.2K, 1.9M, 409.2M).
func FormatCount(n float64) string {
	abs := math.Abs(n)
	switch {
	case abs >= 1e9:
		return trimZero(fmt.Sprintf("%.1fB", n/1e9))
	case abs >= 1e6:
		return trimZero(fmt.Sprintf("%.1fM", n/1e6))
	case abs >= 1e3:
		return trimZero(fmt.Sprintf("%.1fK", n/1e3))
	default:
		if n == math.Trunc(n) { //lint:allow(floatcmp) exact on purpose: integer-valued counts render without decimals
			return fmt.Sprintf("%.0f", n)
		}
		return fmt.Sprintf("%.2f", n)
	}
}

func trimZero(s string) string {
	if i := len(s) - 1; i > 2 && s[i-2] == '.' && s[i-1] == '0' {
		return s[:i-2] + s[i:]
	}
	return s
}
