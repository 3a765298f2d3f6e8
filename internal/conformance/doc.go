// Package conformance is the differential correctness backbone: it drives
// the centralized Xheal reference (the xheal.Network facade over
// core.State) and the distributed protocol engine (internal/dist) through
// the *same* adversarial event schedule in lockstep, and after every event
// asserts that
//
//   - both engines hold identical healed graphs (the protocol's §5 claim
//     that the distributed execution simulates Algorithm 3.1 exactly),
//   - the paper's structural invariants hold (core.CheckInvariants: cloud
//     structure, claims, the Theorem 2.1 degree bound),
//   - every node's message-built local view matches the healed topology
//     (dist.ValidateLocalViews),
//   - the protocol cost ledger stays inside the Theorem 5 / Lemma 5 bounds
//     (per-repair round budget, message floor, amortized message envelope),
//   - the Theorem 2 metrics hold at checkpoints: connectivity, the O(log n)
//     stretch envelope, the 3κ degree-ratio envelope, and positive λ₂.
//
// Run is the per-event lockstep runner; MatrixCells/RunCell enumerate the
// full adversary × workload cross-product that TestConformanceMatrix
// sweeps.
//
// RunBatched is the same lockstep discipline for batched timesteps — the
// serving daemon's native unit (internal/server coalesces concurrent
// submissions into one core.Batch per tick) — applying each batch to both
// engines via their ApplyBatch parity and re-checking after every
// timestep. ChunkSchedule turns a per-event schedule into batches under the
// daemon's conflict rules without changing application order.
//
// On a failure the shrinker (Shrink) delta-debugs the schedule down to a
// locally minimal event sequence and WriteArtifact saves it as an
// internal/trace file, so every divergence becomes a one-command repro
// through the lockstep checker itself: `xheal-bench -conf-replay <file>`
// (see ReproCommand). Shrunk schedules that once cornered real bugs live in
// testdata/ as regression fixtures and seed the fuzz corpus
// (FuzzConformance).
package conformance
