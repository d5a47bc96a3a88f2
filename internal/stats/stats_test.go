package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {25, 20}, {50, 30}, {75, 40}, {100, 50}, {-5, 10}, {110, 50}, {10, 14},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEq(got, c.want) {
			t.Errorf("Percentile(%v) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{7}, 50); got != 7 {
		t.Errorf("single-element percentile = %g", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %g", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPercentileMonotonic(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMedianMatchesSortMid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(99)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 1000
		}
		got := Median(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		var want float64
		if n%2 == 1 {
			want = sorted[n/2]
		} else {
			want = (sorted[n/2-1] + sorted[n/2]) / 2
		}
		if !almostEq(got, want) {
			t.Fatalf("n=%d median=%g want %g", n, got, want)
		}
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0.5, 1, 5, 9, 10, 99, 100, 1000, 5000}
	b := Histogram(xs, []float64{0, 1, 10, 100, 1000})
	counts := []int{1, 3, 2, 3} // 0.5 | 1,5,9 | 10,99 | 100,1000,5000 (clamped)
	for i, want := range counts {
		if b[i].Count != want {
			t.Errorf("bucket %d [%g,%g): got %d want %d", i, b[i].Lo, b[i].Hi, b[i].Count, want)
		}
	}
	if got := Histogram(xs, []float64{0}); got != nil {
		t.Errorf("degenerate bounds should return nil")
	}
}

func TestHistogramTotalPreserved(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) {
				xs = append(xs, math.Abs(x))
			}
		}
		b := Histogram(xs, []float64{0, 1, 10, 100, 1000, 1e6, 1e12})
		total := 0
		for _, bk := range b {
			total += bk.Count
		}
		return total == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLetterValueSummary(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	lv := LetterValueSummary(xs, 5)
	if !almostEq(lv.Median, 499.5) {
		t.Errorf("median = %g", lv.Median)
	}
	if len(lv.Pairs) < 3 {
		t.Fatalf("expected several letter value pairs, got %d", len(lv.Pairs))
	}
	// Boxes must nest: each deeper pair is wider.
	for i := 1; i < len(lv.Pairs); i++ {
		if lv.Pairs[i][0] > lv.Pairs[i-1][0] || lv.Pairs[i][1] < lv.Pairs[i-1][1] {
			t.Errorf("letter value pair %d does not nest: %v then %v", i, lv.Pairs[i-1], lv.Pairs[i])
		}
	}
	if got := LetterValueSummary(nil, 0); got.Median != 0 || got.Pairs != nil {
		t.Errorf("empty letter values = %+v", got)
	}
}

func TestFormatCount(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{95, "95"},
		{447, "447"},
		{4200, "4.2K"},
		{20700, "20.7K"},
		{1900000, "1.9M"},
		{409200000, "409.2M"},
		{2000000000, "2B"},
		{2.5, "2.50"},
	}
	for _, c := range cases {
		if got := FormatCount(c.in); got != c.want {
			t.Errorf("FormatCount(%g) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFloatsConversions(t *testing.T) {
	if f := Floats([]int{1, 2}); f[0] != 1 || f[1] != 2 {
		t.Errorf("Floats = %v", f)
	}
	if m := MedianInts([]int{1, 2, 3}); m != 2 {
		t.Errorf("MedianInts = %g", m)
	}
}
