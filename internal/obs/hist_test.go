package obs

import (
	"math"
	"testing"
)

func TestHistogramBoundsValidation(t *testing.T) {
	if _, err := NewHistogram(nil); err == nil {
		t.Fatal("empty bounds accepted")
	}
	if _, err := NewHistogram([]float64{1, 1}); err == nil {
		t.Fatal("non-increasing bounds accepted")
	}
	if _, err := NewHistogram([]float64{2, 1}); err == nil {
		t.Fatal("decreasing bounds accepted")
	}
	if _, err := NewHistogram([]float64{1, 2, 4}); err != nil {
		t.Fatalf("valid bounds rejected: %v", err)
	}
}

func TestHistogramBucketPlacement(t *testing.T) {
	h := MustHistogram([]float64{1, 2, 4})
	// le semantics: an observation equal to a bound lands in that bound's
	// bucket, matching Prometheus cumulative buckets.
	for _, v := range []float64{0.5, 1} {
		h.Observe(v)
	}
	h.Observe(1.5)
	h.Observe(4)
	h.Observe(100) // +Inf overflow
	s := h.Snapshot()
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d: got %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count: got %d, want 5", s.Count)
	}
	if got := s.Sum; math.Abs(got-107) > 1e-9 {
		t.Fatalf("sum: got %g, want 107", got)
	}
	if got := s.Mean(); math.Abs(got-107.0/5) > 1e-9 {
		t.Fatalf("mean: got %g", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := MustHistogram([]float64{10, 20, 30, 40})
	// 40 observations spread uniformly over (0, 40]: 10 per bucket.
	for i := 1; i <= 40; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	// Linear interpolation inside the owning bucket, as histogram_quantile.
	if got := s.Quantile(0.5); math.Abs(got-20) > 1e-9 {
		t.Fatalf("p50: got %g, want 20", got)
	}
	if got := s.Quantile(0.25); math.Abs(got-10) > 1e-9 {
		t.Fatalf("p25: got %g, want 10", got)
	}
	if got := s.Quantile(0.875); math.Abs(got-35) > 1e-9 {
		t.Fatalf("p87.5: got %g, want 35", got)
	}
	if got := s.Quantile(1); math.Abs(got-40) > 1e-9 {
		t.Fatalf("p100: got %g, want 40", got)
	}

	// Empty histogram: all quantiles zero.
	if got := (HistSnapshot{}).Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile: got %g", got)
	}

	// Overflow observations clamp to the highest finite bound.
	h2 := MustHistogram([]float64{1, 2})
	h2.Observe(50)
	if got := h2.Snapshot().Quantile(0.99); got != 2 {
		t.Fatalf("overflow clamp: got %g, want 2", got)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets: got %v, want %v", got, want)
		}
	}
	for i := 1; i < len(LatencyBuckets()); i++ {
		if LatencyBuckets()[i] <= LatencyBuckets()[i-1] {
			t.Fatal("LatencyBuckets not strictly increasing")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad ExpBuckets args did not panic")
		}
	}()
	ExpBuckets(0, 2, 3)
}

func TestLatencySummary(t *testing.T) {
	h := MustHistogram([]float64{0.010, 0.020})
	for i := 0; i < 10; i++ {
		h.Observe(0.005) // all in the 10ms bucket
	}
	sum := h.Snapshot().Summary()
	if sum.Count != 10 {
		t.Fatalf("summary count: got %d", sum.Count)
	}
	if math.Abs(sum.MeanMS-5) > 1e-9 {
		t.Fatalf("summary mean: got %g ms, want 5", sum.MeanMS)
	}
	if sum.P99MS <= 0 || sum.P99MS > 10 {
		t.Fatalf("summary p99: got %g ms, want in (0, 10]", sum.P99MS)
	}
}

// TestHistogramQuantileEdgeCases pins the quantile estimator's behavior on
// the degenerate inputs that show up in real scrapes: an empty histogram, a
// single observation, and every observation past the highest finite bound.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	bounds := []float64{1, 2, 4, 8}
	cases := []struct {
		name    string
		observe []float64
		q       float64
		want    float64
	}{
		{"empty median", nil, 0.5, 0},
		{"empty p99", nil, 0.99, 0},
		{"empty extreme q", nil, 1, 0},
		// A single observation interpolates inside its own bucket: rank
		// q*1 lands in (2,4] for the value 3, so every quantile stays
		// within that bucket's bounds.
		{"single observation p50", []float64{3}, 0.5, 3},     // 2 + (4-2)*0.5
		{"single observation p99", []float64{3}, 0.99, 3.98}, // 2 + (4-2)*0.99
		{"single observation q=1", []float64{3}, 1, 4},
		// All mass in the +Inf overflow bucket clamps to the highest
		// finite bound for every q — the estimator never invents a value
		// past the layout.
		{"overflow p50", []float64{100, 200, 300}, 0.5, 8},
		{"overflow p99", []float64{100, 200, 300}, 0.99, 8},
		{"overflow q=1", []float64{100, 200, 300}, 1, 8},
		// Out-of-range q is clamped, not rejected. Rank 0 resolves in the
		// first (empty) bucket, whose upper bound is the estimate.
		{"q below 0", []float64{3}, -1, 1},
		{"q above 1", []float64{3}, 2, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := MustHistogram(bounds)
			for _, v := range tc.observe {
				h.Observe(v)
			}
			got := h.Snapshot().Quantile(tc.q)
			if math.Abs(got-tc.want) > 1e-9 {
				t.Fatalf("Quantile(%g) over %v = %g, want %g", tc.q, tc.observe, got, tc.want)
			}
		})
	}
}

// TestHistogramEmptySummary asserts an untouched histogram summarizes to all
// zeros rather than NaNs — /v1/health serves this before the first tick.
func TestHistogramEmptySummary(t *testing.T) {
	sum := MustHistogram(LatencyBuckets()).Snapshot().Summary()
	if sum != (LatencySummary{}) {
		t.Fatalf("empty summary = %+v, want zero value", sum)
	}
	if m := MustHistogram([]float64{1}).Snapshot().Mean(); m != 0 {
		t.Fatalf("empty mean = %g, want 0", m)
	}
}

// TestHistogramQuantileDisjointMass puts two populations at opposite ends
// of the layout into one histogram: the median rank sits exactly at the
// boundary between them, and p25 and p75 must each land in their own
// population's bucket.
func TestHistogramQuantileDisjointMass(t *testing.T) {
	h := MustHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 50; i++ {
		h.Observe(0.5) // first bucket
		h.Observe(7)   // last finite bucket
	}
	snap := h.Snapshot()
	if snap.Count != 100 {
		t.Fatalf("count = %d, want 100", snap.Count)
	}
	if want := 50*0.5 + 50*7.0; math.Abs(snap.Sum-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", snap.Sum, want)
	}
	if got := snap.Quantile(0.25); got > 1 {
		t.Fatalf("p25 = %g, want inside (0,1]", got)
	}
	if got := snap.Quantile(0.75); got <= 4 || got > 8 {
		t.Fatalf("p75 = %g, want inside (4,8]", got)
	}
}
