// Package benchcases holds the core micro-benchmark bodies shared by the
// repository's `go test -bench` suite (bench_test.go at the module root)
// and the `xheal-bench -benchjson` trajectory recorder. A single
// implementation keeps the recorded numbers (docs/bench-history) measuring exactly
// the code the CI benchmark-smoke job runs — two copies would silently
// drift apart, and a perf regression could hide in the gap.
//
// Each case is a plain func(b *testing.B) so the same body runs under `go
// test -bench` (interactive work, CI smoke at -benchtime 1x) and under
// testing.Benchmark inside xheal-bench (the recorded ns/op, B/op, and
// allocs/op series of docs/bench-history/BENCH_PR2.json). The cases cover the hot
// layers with perf contracts: graph mutation and cached-view iteration,
// heal-repair allocation counts, H-graph churn, λ₂ estimation (Jacobi and
// Lanczos/CSR), and mixing-time measurement.
//
// When adding a case, register it in both consumers (the root bench file
// and cmd/xheal-bench's micro list) — the shared body is the point of this
// package.
package benchcases
