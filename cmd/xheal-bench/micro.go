package main

import (
	"testing"

	"github.com/xheal/xheal/internal/benchcases"
)

// microResult is one core micro-benchmark measurement in the -benchjson
// output; the same quantities `go test -bench` prints.
type microResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// runMicroBenches times the core primitives with the testing package's
// benchmark driver — the allocation trajectory docs/bench-history tracks across
// PRs. The bodies are the exact ones bench_test.go runs (see
// internal/benchcases), so the recorded numbers and the CI benchmark smoke
// job can never measure different code.
func runMicroBenches() []microResult {
	benches := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"HealDeletion", benchcases.HealDeletion},
		{"ApplyBatchSerial", benchcases.ApplyBatchSerial},
		{"ApplyBatchParallel", benchcases.ApplyBatchParallel},
		{"DistributedDeletion", benchcases.DistributedDeletion},
		{"HGraphChurn", benchcases.HGraphChurn},
		{"Lambda2Jacobi", benchcases.Lambda2Jacobi},
		{"Lambda2Lanczos", benchcases.Lambda2Lanczos},
		{"MixingTime", benchcases.MixingTime},
	}
	out := make([]microResult, 0, len(benches))
	for _, bench := range benches {
		r := testing.Benchmark(bench.fn)
		out = append(out, microResult{
			Name:        bench.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return out
}
