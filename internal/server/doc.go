// Package server is the long-running maintenance daemon built on the
// paper's remark that the algorithm "can be extended to handle multiple
// insertions/deletions": it owns one healing engine — the sequential
// reference (core.State) or the distributed protocol engine (dist.Engine) —
// and turns a concurrent stream of insert/delete submissions into the
// batched timesteps the engines understand. Engine is the whole contract
// between the two: everything the server calls on an engine, with no
// optional capabilities to probe for, so a further backend implements one
// interface and NewEngine builds either existing one by name. DEX
// (Pandurangan–Robinson–Trehan, "DEX: Self-healing Expanders") frames this
// always-on service view of self-healing; this package is that view for
// Xheal.
//
// # Coalescing model
//
// Clients submit single events (Submit, or the HTTP ingest endpoint served
// by Handler) and block until their event is applied. Submissions enter one
// mutex-guarded FIFO — an HTTP array is one enqueue, contiguous and in
// order, and arrival order is lock order — and a single tick loop drains
// everything that arrived during one coalescing window (Config.Tick) into
// one core.Batch, so the engine heals once per timestep no matter how many
// clients acted. Within a tick, events are admitted in arrival order under
// the same rules core.State.ValidateBatch enforces (ErrBatchConflict),
// evaluated incrementally through the engine's core.BatchAdmission:
// an event that conflicts with the batch being assembled — deleting a node
// inserted this tick, attaching to a node deleted this tick, duplicate
// targets — is deferred to the next tick, where it is re-validated against
// the settled graph; after Config.MaxDefer deferrals it is rejected.
// Invalid events (unknown deletion target, reused ID, dead neighbor) are
// rejected immediately with the corresponding core sentinel error.
//
// Backpressure is the FIFO's bound (Config.QueueDepth): when the loop cannot
// keep up, Submit fails fast with ErrBacklog — an array is accepted as a
// prefix up to the free capacity — instead of letting latency grow without
// bound.
//
// # Observability and replay
//
// Health has one path: a snapshot (connectivity, degree ratio, cached λ₂ and
// sampled stretch with their ages) read from the incremental tracker and
// caches the tick loop feeds with each batch's structural delta, plus the
// serving counters — no graph clone, no traversal, and no wait for the apply
// lock: the loop publishes an immutable copy of its counters before the
// first ack of every tick, and Health, Counters and the /metrics closures
// read that. Handler additionally
// exposes the counters in Prometheus text form at /metrics. When Config.Log is set,
// every applied batch is appended — in exact application order — to an
// internal/trace event log, so any serving run replays byte-for-byte
// through `xheal-sim -replay` or the conformance checker: same initial
// graph, same κ, same seed, same final topology. Close drains the queue,
// applies everything already accepted, and finishes the log before
// returning.
package server
