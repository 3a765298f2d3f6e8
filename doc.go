// Package xheal is a from-scratch Go implementation of Xheal, the localized
// self-healing algorithm of Pandurangan & Trehan (PODC 2011), together with
// everything needed to reproduce the paper's analysis: the Law–Siu random
// H-graph expander substrate, a distributed (message-passing, synchronous
// rounds) protocol with honest round/message accounting, baseline healers
// (Forgiving Tree/Graph-style and naive repairs), and spectral/cut
// measurement tooling.
//
// # The problem
//
// A reconfigurable network (peer-to-peer, wireless mesh, overlay) is
// attacked by an omniscient adversary that inserts or deletes one node per
// timestep. After each deletion the surviving nodes may add or drop edges.
// Xheal heals by wiring a κ-regular expander "cloud" across each wound. The
// paper proves the healed network G, compared with the insertions-only
// baseline G′, keeps:
//
//   - connectivity;
//   - edge expansion h(G) ≥ min(α, h(G′)) for a constant α;
//   - pairwise distances within O(log n) of G′ (stretch);
//   - node degrees within κ·deg_G′(x) + 2κ;
//   - an algebraic-connectivity (λ₂) floor derived via Cheeger's inequality.
//
// # Quick start
//
//	g := xheal.NewGraph()
//	for i := 1; i <= 8; i++ {
//		g.EnsureEdge(0, xheal.NodeID(i)) // a star: hub 0, eight leaves
//	}
//	n, err := xheal.NewNetwork(g, xheal.WithKappa(4), xheal.WithSeed(42))
//	if err != nil { ... }
//	_ = n.Delete(0) // adversary kills the hub; Xheal heals the leaves
//	snap := n.Measure()
//	fmt.Println(snap.Connected, snap.ExpansionExact)
//
// See the examples directory for runnable scenarios (quickstart, P2P churn,
// the paper's star-attack comparison, and the distributed protocol), and
// EXPERIMENTS.md for the per-theorem reproduction tables regenerated by
// cmd/xheal-bench.
package xheal
