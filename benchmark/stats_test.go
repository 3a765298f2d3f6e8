package main

import (
	"math"
	"testing"
	"time"
)

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got := quartileSpread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
	if got := quartileSpread([]float64{10, 12, 11}); math.Abs(got-2.0/11) > 1e-12 {
		t.Errorf("spread %v, want 2/11", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got := quartileSpread([]float64{2, 1}); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread %v, want 1.5/1.5", got)
	}
	if got := quartileSpread([]float64{4}); got != 0 {
		t.Errorf("spread of one value %v", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond it)", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median %v, want 2.5", got)
	}
}

// TestLayerStatsSelfTime: a child span's time is taken out of its parent's,
// time outside the window is not charged, and calls a warm-up POST caused
// are timed but not counted.
func TestLayerStatsSelfTime(t *testing.T) {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		// The warm-up's checkpoint runs 5 ms into the window.
		{layer: lySnapshot, tick: warmupPosts, parent: -1, start: msec(90), end: msec(105)},
		// A measured apply with a span-log write nested inside it.
		{layer: lyApply, tick: warmupPosts + 1, parent: -1, start: msec(110), end: msec(120)},
		{layer: lySpanlog, tick: warmupPosts + 1, parent: 1, start: msec(112), end: msec(115)},
		{layer: lyFsync, tick: warmupPosts + 1, parent: -1, start: msec(120), end: msec(121)},
		// The final drain's checkpoint, long after the window closed.
		{layer: lySnapshot, tick: warmupPosts + 1, parent: -1, start: msec(500), end: msec(600)},
	}
	st := layerStats(spans, msec(100), msec(200))
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if !near(st[lySnapshot].selfS, 0.005) || st[lySnapshot].count != 0 {
		t.Errorf("snapshot: self %v count %d, want 0.005 and 0", st[lySnapshot].selfS, st[lySnapshot].count)
	}
	if !near(st[lyApply].selfS, 0.007) || st[lyApply].count != 1 || !near(st[lyApply].durMS[0], 10) {
		t.Errorf("apply: %+v, want self 0.007, one call of 10 ms", st[lyApply])
	}
	if !near(st[lySpanlog].selfS, 0.003) || !near(st[lyFsync].selfS, 0.001) {
		t.Errorf("spanlog self %v fsync self %v", st[lySpanlog].selfS, st[lyFsync].selfS)
	}
	if stalls := checkpointStalls(spans, msec(200)); len(stalls) != 0 {
		t.Errorf("stalls %v: neither checkpoint was caused by a measured POST inside the window", stalls)
	}
}
