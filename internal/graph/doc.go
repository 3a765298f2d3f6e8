// Package graph provides the dynamic undirected simple graph every other
// subsystem in this repository builds on. It supports incremental node/edge
// insertion and deletion, neighbor iteration in deterministic order, and
// the traversal and statistics helpers (BFS distances, connected
// components, diameter, articulation points, degree summaries) needed by
// the Xheal algorithm, the distributed engine, the adversaries, and the
// measurement tooling.
//
// # What is stored, what is derived, and the read-only contract
//
// Stored: one ascending neighbor slice per node, kept sorted by the
// mutators (binary search plus an in-place insert or delete — degrees are
// small by design, Theorem 2). Neighbors returns that slice itself, so it
// never allocates and there is no cold state after a mutation; HasEdge is a
// binary search in it; RemoveNode unlinks the slice and hands it to the
// caller. Traversals walk it, which is why BFS order, shortest-path choice
// and even the float accumulation order of EdgeBetweenness are functions of
// the graph alone.
//
// Derived: only Nodes and Edges, the two whole-graph views, because sorted
// node order cannot be stored for free. They are built on the first call
// after a mutation (one allocation) and served from a cache keyed by the
// mutation counter (Generation) until the next one.
//
// All three return read-only slices — callers must not modify them, and
// must copy to get something they can. Their lifetimes differ:
//
//   - A Neighbors slice is a live view of the graph's own storage, valid
//     until the graph's next mutation. Any mutation may rewrite it in
//     place, so iterate first and mutate afterwards, or copy. (Every caller
//     in this repository iterates before mutating.)
//   - A slice returned by RemoveNode is owned by the caller: the graph
//     never writes it again, whatever later happens to the former
//     neighbors or to a new node with the same ID.
//   - A retained Nodes or Edges slice stays valid as a frozen snapshot
//     across later mutations (rebuilds allocate fresh backing arrays); it
//     just no longer reflects the graph.
//
// The contract is enforced by alloc_test.go, graph_test.go and the
// model-based FuzzGraphOps (which keeps the naive map-of-sets adjacency as
// its reference implementation), so it cannot silently rot.
//
// Because Nodes and Edges materialize on read, the graph is not safe for
// any concurrent use — including concurrent reads — without external
// synchronization (internal/server serializes all access to its engine's
// graphs for exactly this reason).
package graph
