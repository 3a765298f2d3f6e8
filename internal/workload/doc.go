// Package workload generates the initial topologies the experiments start
// from: the adversarial shapes the paper's analysis highlights (stars —
// the motivating example, paths — the stretch worst case), the realistic
// substrates its introduction motivates (Erdős–Rényi and power-law graphs
// for peer-to-peer/mesh overlays), structured graphs that exercise
// particular repair geometry (cycles, grids, hypercubes, complete graphs),
// and the paper's own expander construction (RandomRegular, a Law–Siu
// H-graph via internal/hgraph, which doubles as the "G′ is an expander"
// workload of Corollary 1). TwoCliquesBridge reproduces the §1.1 example
// separating expansion from conductance.
//
// Every generator returns a connected graph or an error — randomized
// generators retry a bounded number of times and fail with ErrGaveUp
// rather than hand the harness a disconnected starting point. ByName maps
// registry names (Names) to generators with sensible default shape
// parameters, which is what xheal-sim, xheal-serve, the experiment harness,
// the scenarios, the repository benchmark and the conformance matrix build
// their genesis graphs from.
package workload
