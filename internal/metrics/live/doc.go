// Package live maintains serving metrics incrementally, so a health poll of
// a 10⁵–10⁶-node daemon costs O(1) instead of a full measurement pass.
//
// The package has three parts, all fed by the exact per-tick structural
// deltas the engines export (core.TickDelta):
//
//   - Tracker keeps node/edge counts, the maximum degree, and the paper's
//     degree-increase metric max deg_G/deg_G′ (Theorem 2.1) exactly, via a
//     degree histogram and a degree-ratio index updated per delta. It also
//     keeps the last established connectivity verdict together with a dirty
//     flag: pure attached growth of a connected graph preserves
//     connectivity, anything else marks the verdict stale until a
//     traversal (the refresh cycle's CSR BFS) re-establishes it. Audit
//     compares every tracked value against the full metrics recomputation —
//     the correctness oracle the equivalence tests and the serving daemon's
//     periodic audit both use.
//
//   - Lambda2Cache estimates λ₂(L) on CSR snapshots with a warm-started
//     Lanczos iteration: the previous refresh's Ritz vector, remapped onto
//     the new node ordering, re-converges in a third of the cold step
//     count. Refreshes are skipped entirely while the graph generation is
//     unchanged; staleness (ticks since refresh) is exposed for /v1/health.
//     The serving daemon decides when to refresh: an opportunity every
//     RefreshEvery ticks, taken once change ≥ n + m since the last one.
//
//   - StretchSampler estimates the paper's stretch metric (Theorem 2.2)
//     from a reservoir of BFS sources with cached distance arrays. Each
//     applied delta is screened against every cached tree: a tree is only
//     re-BFSed when the delta could change its distances (a removed edge on
//     a shortest-path level boundary, an inserted shortcut, a dead source)
//     or when it exceeds its age bound. Values are estimates between
//     refreshes — nodes inserted after a tree's build are not counted until
//     the next rebuild — and carry their age so consumers can judge them.
//
// Everything here is safe for one writer (the serving apply loop and its
// refresh goroutine) plus any number of concurrent readers.
package live
