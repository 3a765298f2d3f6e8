// Package adversary implements the attack side of the paper's model (§2):
// an omniscient adversary watches the current topology and, once per
// timestep, deletes an arbitrary node or inserts a node with arbitrary
// connections. Per the model, the adversary is oblivious to the healing
// algorithm's private randomness — every strategy receives only a read-only
// view of the healed graph, never the healer's internal state.
//
// # Strategies
//
// The view-driven strategies cover the attack space the paper's analysis
// highlights: RandomChurn (sustained mixed insert/delete load, the
// peer-to-peer scenario of the introduction), MaxDegree (always kill the
// highest-degree node — the star example generalized), CutVertex (delete
// articulation points, the most damaging single deletion available),
// PathDismantler (target diameter-path interiors, the stretch bound's worst
// case), Sequential (dismantle the original topology in ID order), and
// InsertBurst (pure preferential growth, exercising the degree bookkeeping
// insertions-only). Scripted replays a fixed event list and is the
// foundation of trace replay and the conformance shrinker; EncodeScript and
// ParseScript round-trip schedules through a human-readable text form.
//
// All strategies register under Names/ByName so CLIs can enumerate them and
// error messages can list the valid set.
//
// # Client streams
//
// ClientStream is the serving-era counterpart: a generator for one client
// of the maintenance daemon (internal/server), which cannot see the
// topology at all. Each stream owns a disjoint node-ID namespace, attaches
// only to fixed anchor nodes or its own insertions, and deletes only nodes
// it owns — so any number of concurrent streams interleave without ever
// producing a conflicting event. It is the client of internal/server's
// concurrency tests, which need many writers at full speed and a run that
// stays verifiable; cmd/xheal-drill's single writer uses internal/scenario.
package adversary
