// Package harness drives the experiments that reproduce the paper's
// analysis: it runs adversarial scenarios against Xheal and the baseline
// healers in lockstep, collects metric snapshots, and renders the result
// tables recorded in EXPERIMENTS.md. Each experiment (E1–E14) maps to one
// theorem, lemma, corollary, or motivating example of the paper — the
// degree bound (Theorem 2.1), stretch (2.2), expansion (2.3), the spectral
// floor (2.4), the distributed cost envelope (Theorem 5 / Lemma 5), the
// H-graph substrate (Theorems 3–4), the star-attack comparison, and the
// design ablations. docs/ARCHITECTURE.md carries the full experiment ↔
// theorem index.
//
// Experiments — and the independent rows inside each experiment — run on a
// bounded worker pool (ForEachIndex, GOMAXPROCS workers) with results
// assembled in index order, so `xheal-bench -all > EXPERIMENTS.md` produces
// identical bytes no matter how many workers run; every row builds its own
// rand sources from the experiment seed. xheal-bench's timing lines go to
// stderr, the one non-deterministic output; the root bench_test.go's
// BenchmarkE* functions time one experiment each under `go test -bench`.
package harness
