package obs

import (
	"fmt"
	"sort"
	"sync"
)

// Histogram is a streaming fixed-bucket histogram. Buckets are defined by a
// strictly increasing slice of upper bounds plus an implicit +Inf overflow
// bucket, so an observation can never be dropped. Observe is allocation-free;
// concurrent use is safe (one short mutex hold per observation).
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // strictly increasing upper bounds (le boundaries)
	counts []uint64  // len(bounds)+1; counts[len(bounds)] is the +Inf bucket
	sum    float64
	count  uint64
}

// NewHistogram builds a histogram over the given upper bounds, which must be
// strictly increasing and non-empty. The bounds slice is retained; callers
// must not modify it.
func NewHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("obs: histogram bounds not strictly increasing at %d (%g after %g)",
				i, bounds[i], bounds[i-1])
		}
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}, nil
}

// MustHistogram is NewHistogram for static bucket layouts, panicking on a
// malformed layout (a programming error, not a runtime condition).
func MustHistogram(bounds []float64) *Histogram {
	h, err := NewHistogram(bounds)
	if err != nil {
		panic(err)
	}
	return h
}

// Observe records one value. Allocation-free.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; +Inf bucket past the end
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Snapshot returns a consistent copy of the histogram state.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistSnapshot{
		Bounds: h.bounds, // immutable after construction
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
}

// HistSnapshot is one point-in-time copy of a Histogram, safe to read and
// summarize without holding any lock.
type HistSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Mean returns the exact mean of all observations (the sum is tracked
// exactly, unlike the bucketed quantiles). Zero when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// inside the bucket holding the target rank, the same estimate
// Prometheus's histogram_quantile computes. Values in the +Inf overflow
// bucket clamp to the highest finite bound. Returns 0 when empty.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := uint64(0)
	for i, c := range s.Counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		within := rank - float64(cum-c)
		return lo + (hi-lo)*(within/float64(c))
	}
	return s.Bounds[len(s.Bounds)-1]
}

// ExpBuckets returns n strictly increasing upper bounds starting at start
// and growing by factor — the standard exponential latency/size layout.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n > 0")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the shared latency layout: 22 exponential buckets from
// 1µs to ~4s (in seconds), covering a single cloud rewire up to a pathological
// full-network repair.
func LatencyBuckets() []float64 { return ExpBuckets(1e-6, 2, 22) }

// SizeBuckets is the shared small-integer layout (batch sizes, queue
// depths, wound sizes): powers of two from 1 to 1024.
func SizeBuckets() []float64 { return ExpBuckets(1, 2, 11) }

// LatencySummary is the JSON form of a latency histogram's headline
// statistics (internal/server's /v1/health), in milliseconds.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// Summary condenses a seconds-valued latency snapshot into millisecond
// headline statistics.
func (s HistSnapshot) Summary() LatencySummary {
	return LatencySummary{
		Count:  s.Count,
		MeanMS: s.Mean() * 1000,
		P50MS:  s.Quantile(0.50) * 1000,
		P95MS:  s.Quantile(0.95) * 1000,
		P99MS:  s.Quantile(0.99) * 1000,
	}
}
