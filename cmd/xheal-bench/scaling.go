package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"github.com/xheal/xheal"
	"github.com/xheal/xheal/internal/obs"
)

// The -parallel-scaling mode records how ApplyBatchParallel's throughput
// scales with GOMAXPROCS on a disjoint-heavy deletion workload — the
// empirical side of Theorem 5's locality argument (disjoint wounds heal
// independently, so repair work parallelizes). The schedule is precomputed
// once and replayed identically at every point: parallel apply is
// byte-deterministic, so each configuration heals the exact same wounds.

// scalingPoint is one (GOMAXPROCS, workers) measurement.
type scalingPoint struct {
	GoMaxProcs   int     `json:"go_max_procs"`
	Workers      int     `json:"workers"`
	Events       int     `json:"events"`
	WallMS       float64 `json:"wall_ms"`
	EventsPerSec float64 `json:"events_per_sec"`
	SpeedupVs1   float64 `json:"speedup_vs_1"`
}

// scalingReport is the schema of the -parallel-scaling output
// (docs/bench-history/BENCH_PR8.json). Note records the host caveat: on a single-CPU machine
// the curve measures scheduling overhead, not speedup — the multi-core CI
// runners produce the real curve.
type scalingReport struct {
	Env     obs.Env        `json:"env"`
	N       int            `json:"n"`
	Ticks   int            `json:"ticks"`
	PerTick int            `json:"deletions_per_tick"`
	Note    string         `json:"note"`
	Points  []scalingPoint `json:"points"`
}

// buildScalingSchedule generates the deletion-heavy batch schedule against a
// scratch network (victim choice needs the alive set, which repairs mutate).
// Determinism of the healer makes the recorded schedule valid for every
// replay configuration.
func buildScalingSchedule(n, ticks, perTick int) (*xheal.Graph, []xheal.Batch, error) {
	g0, err := xheal.RandomRegularGraph(n, 3, 31)
	if err != nil {
		return nil, nil, err
	}
	scratch, err := xheal.NewNetwork(g0, xheal.WithKappa(4), xheal.WithSeed(32))
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(33))
	alive := append([]xheal.NodeID(nil), scratch.Graph().Nodes()...)
	next := xheal.NodeID(1 << 20)
	batches := make([]xheal.Batch, 0, ticks)
	for t := 0; t < ticks; t++ {
		var b xheal.Batch
		for i := 0; i < perTick && len(alive) > 4; i++ {
			j := rng.Intn(len(alive))
			v := alive[j]
			alive[j] = alive[len(alive)-1]
			alive = alive[:len(alive)-1]
			b.Deletions = append(b.Deletions, v)
		}
		for range b.Deletions {
			u, w := alive[rng.Intn(len(alive))], alive[rng.Intn(len(alive))]
			nbrs := []xheal.NodeID{u, w}
			if u == w {
				nbrs = nbrs[:1]
			}
			b.Insertions = append(b.Insertions, xheal.BatchInsertion{Node: next, Neighbors: nbrs})
			alive = append(alive, next)
			next++
		}
		if err := scratch.ApplyBatch(b); err != nil {
			return nil, nil, fmt.Errorf("schedule tick %d: %w", t, err)
		}
		batches = append(batches, b)
	}
	return g0, batches, nil
}

// runParallelScaling replays the schedule at GOMAXPROCS ∈ {1, 2, 4, 8} with
// a matching worker count and writes the throughput curve to outPath.
func runParallelScaling(stderr io.Writer, outPath string) int {
	const (
		nodes   = 1024
		ticks   = 40
		perTick = 16
	)
	g0, batches, err := buildScalingSchedule(nodes, ticks, perTick)
	if err != nil {
		fmt.Fprintf(stderr, "parallel-scaling: %v\n", err)
		return 1
	}
	events := 0
	for _, b := range batches {
		events += len(b.Insertions) + len(b.Deletions)
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	report := scalingReport{
		Env:     obs.CaptureEnv(),
		N:       nodes,
		Ticks:   ticks,
		PerTick: perTick,
		Note: "schedule is identical at every point (parallel apply is byte-deterministic); " +
			"points with go_max_procs > num_cpu measure scheduling overhead, not parallel speedup — " +
			"compare against a multi-core host for the real curve",
	}
	points := []int{1, 2, 4, 8}
	if ncpu, maxW := runtime.NumCPU(), points[len(points)-1]; ncpu < maxW {
		// An undersized host can only oversubscribe past its core count, so
		// flag the curve both interactively and in the archived JSON — a CI
		// artifact consumer must not read the tail points as real speedup.
		fmt.Fprintf(stderr, "parallel-scaling: warning: host has %d CPUs but the curve runs up to %d workers; "+
			"points beyond %d CPUs measure oversubscription, not speedup\n", ncpu, maxW, ncpu)
		report.Note += fmt.Sprintf("; WARNING: this host has only %d CPUs — points beyond %d workers are oversubscribed", ncpu, ncpu)
	}
	var base float64
	for _, gmp := range points {
		runtime.GOMAXPROCS(gmp)
		net, err := xheal.NewNetwork(g0, xheal.WithKappa(4), xheal.WithSeed(32))
		if err != nil {
			fmt.Fprintf(stderr, "parallel-scaling: %v\n", err)
			return 1
		}
		start := time.Now()
		for t, b := range batches {
			if err := net.ApplyBatchParallel(b, gmp); err != nil {
				fmt.Fprintf(stderr, "parallel-scaling: GOMAXPROCS=%d tick %d: %v\n", gmp, t, err)
				return 1
			}
		}
		wall := time.Since(start)
		eps := float64(events) / wall.Seconds()
		if gmp == 1 {
			base = eps
		}
		report.Points = append(report.Points, scalingPoint{
			GoMaxProcs:   gmp,
			Workers:      gmp,
			Events:       events,
			WallMS:       float64(wall.Microseconds()) / 1000,
			EventsPerSec: eps,
			SpeedupVs1:   eps / base,
		})
		fmt.Fprintf(stderr, "GOMAXPROCS=%d: %d events in %v (%.0f events/sec, %.2fx)\n",
			gmp, events, wall.Round(time.Millisecond), eps, eps/base)
	}
	if err := writeJSON(outPath, report); err != nil {
		fmt.Fprintf(stderr, "parallel-scaling: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "wrote %s\n", outPath)
	return 0
}
