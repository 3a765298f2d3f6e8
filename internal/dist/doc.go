// Package dist is the distributed Xheal protocol engine of the paper's §5:
// every alive node keeps its own protocol state, all coordination happens by
// messages in synchronous rounds, and every round and message is counted so
// the cost theorems can be checked empirically. The engine runs the rounds
// in one loop: each round delivers every message in flight, in ascending
// recipient order, and the replies become the next round's traffic.
//
// # Protocol
//
// A deletion of node v opens a "wound": the alive neighbors of v. The repair
// runs in phases, each phase one or more synchronous rounds:
//
//  1. Detect — every wound member receives the failure notification for v
//     (deg(v) messages, the unavoidable Θ(deg) of Lemma 5) carrying the
//     wound roster, and drops v from its local view.
//  2. Elect — the wound members convergecast their random leader ranks up a
//     binary bracket over the sorted roster: ⌈log₂ k⌉ rounds, k−1 messages.
//     The bracket root then grants leadership to the best-ranked member,
//     forwarding the gathered neighborhood reports (≤ 1 message).
//  3. Heal — the leader computes the repair — wiring the κ-regular expander
//     cloud across the wound; the decision procedure is Algorithm 3.1,
//     delegated to internal/core exactly as the paper's leader simulates the
//     sequential algorithm on the gathered state — and disseminates one
//     edge-update message to every node whose incident edges change. Each
//     recipient applies the update to its local view.
//
// Insertions cost one round: the joining node greets each chosen neighbor.
//
// Every node's local view — its belief about its own incident edges — is
// built exclusively from the messages it received (plus the edges it itself
// initiated). Engine.ValidateLocalViews is the decisive conformance check:
// the graph assembled from all local views must be exactly the healed graph
// maintained by the reference implementation.
//
// The engine is not safe for concurrent use; drive it from one goroutine.
// It starts no goroutines of its own.
package dist
