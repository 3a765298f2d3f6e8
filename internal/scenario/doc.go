// Package scenario is the chaos-scenario library: named, seeded, replayable
// serving incidents compiled down to the same adversary.Event schedules the
// rest of the repo already knows how to replay, shrink, and fuzz.
//
// Where internal/adversary supplies synthetic per-event attack policies
// (random churn, max-degree targeting, ...), a scenario is shaped like a real
// production incident: a flash crowd piling inserts onto one anchor region, a
// regional failure deleting a correlated cluster footprint, partition churn
// alternately tearing down and rebuilding the same region, a slow-drip
// targeted attack removing the highest-degree node at a low rate, or mixed
// read/heal traffic interleaving health and metrics queries with mutations.
//
// Every scenario is deterministic in (name, Params): the genesis topology
// comes from workload.ByName(sc.Workload, p.N, rand.New(rand.NewSource(
// p.Seed))) and the event stream from an rng seeded with p.Seed+1 — the same
// split the conformance matrix uses — so `xheal-drill -scenario X` and
// conformance.RunScenario walk identical schedules. Compile renders the
// schedule as adversary.EncodeScript text, which makes every scenario run
// replayable through xheal-sim -replay and ddmin-shrinkable by
// conformance.Shrink, exactly like any other trace artifact.
//
// Streams emit events in waves of Params.Wave events. Within a wave the
// generator never produces two events the serving batcher would consider
// conflicting (no deleting a node inserted or attached-to in the same wave,
// no attaching to a node already deleted — the bookkeeping graph drops
// deleted nodes immediately, so they can't be picked again): a wave submitted
// as one serving batch admits without deferral, and ChunkSchedule keeps waves
// whole for batched conformance runs. Validity needs no engine in the loop:
// healing never removes nodes other than the deleted one, so a bookkeeping
// graph that applies raw events tracks the engine's alive set exactly.
//
// The registry (Names, ByName) mirrors adversary.Names/ByName so CLIs and
// tests can enumerate scenarios the same way they enumerate adversaries.
package scenario
