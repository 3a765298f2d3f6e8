package cuts

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/spectral"
)

// ExactLimit is the largest node count accepted by the exact enumerators
// (2^(n-1) subsets are visited).
const ExactLimit = 24

// ErrTooLarge is returned by exact enumeration on graphs over ExactLimit nodes.
var ErrTooLarge = errors.New("cuts: graph too large for exact enumeration")

// ErrTooSmall is returned when the quantity is undefined (fewer than 2 nodes).
var ErrTooSmall = errors.New("cuts: need at least 2 nodes")

// EdgeExpansion returns the exact edge expansion
//
//	h(G) = min_{0<|S|<=n/2} |E(S, V-S)| / |S|
//
// by enumerating all subsets. For a disconnected graph it returns 0.
func EdgeExpansion(g *graph.Graph) (float64, error) {
	h, _, err := EdgeExpansionCut(g)
	return h, err
}

// EdgeExpansionCut returns the exact edge expansion and a witness subset
// achieving it.
func EdgeExpansionCut(g *graph.Graph) (float64, []graph.NodeID, error) {
	nodes := g.Nodes()
	n := len(nodes)
	if n < 2 {
		return 0, nil, fmt.Errorf("edge expansion of %d-node graph: %w", n, ErrTooSmall)
	}
	if n > ExactLimit {
		return 0, nil, fmt.Errorf("edge expansion of %d-node graph: %w", n, ErrTooLarge)
	}
	best := math.Inf(1)
	var bestMask uint32
	full := (uint32(1) << uint(n)) - 1
	enumerateCuts(g, nodes, func(mask uint32, size, cut, _ int) {
		if size == 0 {
			return
		}
		// Expansion is not complement-symmetric (the denominator is |S|),
		// and the enumerator fixes node 0 outside S, so evaluate both sides
		// of every cut: S itself and its complement (which contains node 0).
		if 2*size <= n {
			if v := float64(cut) / float64(size); v < best {
				best = v
				bestMask = mask
			}
		}
		if co := n - size; co > 0 && 2*co <= n {
			if v := float64(cut) / float64(co); v < best {
				best = v
				bestMask = full &^ mask
			}
		}
	})
	return best, maskToNodes(bestMask, nodes), nil
}

// Conductance returns the exact Cheeger constant (conductance)
//
//	φ(G) = min_S |E(S, V-S)| / min(vol(S), vol(V-S))
//
// by enumeration. For a disconnected graph it returns 0.
func Conductance(g *graph.Graph) (float64, error) {
	phi, _, err := ConductanceCut(g)
	return phi, err
}

// ConductanceCut returns the exact conductance and a witness subset.
func ConductanceCut(g *graph.Graph) (float64, []graph.NodeID, error) {
	nodes := g.Nodes()
	n := len(nodes)
	if n < 2 {
		return 0, nil, fmt.Errorf("conductance of %d-node graph: %w", n, ErrTooSmall)
	}
	if n > ExactLimit {
		return 0, nil, fmt.Errorf("conductance of %d-node graph: %w", n, ErrTooLarge)
	}
	totalVol := 2 * g.NumEdges()
	if totalVol == 0 {
		return 0, nil, nil
	}
	best := math.Inf(1)
	var bestMask uint32
	enumerateCuts(g, nodes, func(mask uint32, size, cut, vol int) {
		if size == 0 || size == n {
			return
		}
		denom := vol
		if other := totalVol - vol; other < denom {
			denom = other
		}
		if denom == 0 {
			// One side has no edge endpoints: conductance 0 cut (disconnected
			// or isolated vertices).
			if cut == 0 {
				best = 0
				bestMask = mask
			}
			return
		}
		v := float64(cut) / float64(denom)
		if v < best {
			best = v
			bestMask = mask
		}
	})
	if math.IsInf(best, 1) {
		best = 0
	}
	return best, maskToNodes(bestMask, nodes), nil
}

// enumerateCuts visits every subset S (as a bitmask over nodes, excluding the
// full set; including the empty set which callers skip) and reports its
// size, cut size, and volume. To halve work it fixes node 0 out of S.
func enumerateCuts(g *graph.Graph, nodes []graph.NodeID, visit func(mask uint32, size, cut, vol int)) {
	n := len(nodes)
	idx := make(map[graph.NodeID]int, n)
	for i, node := range nodes {
		idx[node] = i
	}
	// Precompute adjacency bitmasks and degrees.
	adj := make([]uint32, n)
	deg := make([]int, n)
	for i, node := range nodes {
		deg[i] = g.Degree(node)
		for _, w := range g.Neighbors(node) {
			adj[i] |= 1 << uint(idx[w])
		}
	}
	// Subsets of {1..n-1}: node 0 always on the complement side.
	limit := uint32(1) << uint(n-1)
	for m := uint32(1); m < limit; m++ {
		mask := m << 1 // node 0 excluded
		size := 0
		cut := 0
		vol := 0
		rest := mask
		for rest != 0 {
			i := bits.TrailingZeros32(rest)
			rest &^= 1 << uint(i)
			size++
			vol += deg[i]
			cut += bits.OnesCount32(adj[i] &^ mask)
		}
		visit(mask, size, cut, vol)
	}
}

func maskToNodes(mask uint32, nodes []graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for i, node := range nodes {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, node)
		}
	}
	return out
}

// Estimate captures bounds on expansion/conductance for graphs too large for
// exact enumeration.
type Estimate struct {
	// ConductanceUpper is the conductance of the best sweep cut found — a
	// certified upper bound (the cut is a witness).
	ConductanceUpper float64
	// ConductanceLower is λ₂(normalized)/2, the Cheeger-inequality lower
	// bound (paper Thm 1).
	ConductanceLower float64
	// ExpansionUpper is the edge expansion of the best sweep cut (by |S|).
	ExpansionUpper float64
	// Lambda2Normalized is λ₂ of the normalized Laplacian.
	Lambda2Normalized float64
}

// EstimateBounds computes spectral bounds and sweep-cut witnesses for g.
// Disconnected graphs report all-zero bounds.
func EstimateBounds(g *graph.Graph, rng *rand.Rand) Estimate {
	var est Estimate
	if g.NumNodes() < 2 || !g.IsConnected() {
		return est
	}
	est.Lambda2Normalized = spectral.NormalizedAlgebraicConnectivity(g, rng)
	est.ConductanceLower = spectral.CheegerLower(est.Lambda2Normalized)
	phi, h := SweepCut(g, rng)
	est.ConductanceUpper = phi
	est.ExpansionUpper = h
	return est
}

// SweepCut orders nodes by the Fiedler vector and scans the n-1 prefix cuts,
// returning the minimum conductance and minimum edge expansion found. This
// is the standard spectral-partitioning rounding; by Cheeger's inequality the
// returned conductance is within √(2λ) of optimal.
func SweepCut(g *graph.Graph, rng *rand.Rand) (conductance, expansion float64) {
	n := g.NumNodes()
	if n < 2 {
		return 0, 0
	}
	vec, nodes := spectral.FiedlerVector(g, rng)
	if vec == nil {
		return 0, 0
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Sort node indices by Fiedler value.
	sortByVec(order, vec)

	idx := make(map[graph.NodeID]int, n)
	for i, node := range nodes {
		idx[node] = i
	}
	inS := make([]bool, n)
	totalVol := 2 * g.NumEdges()
	cut := 0
	vol := 0
	size := 0
	bestPhi := math.Inf(1)
	bestH := math.Inf(1)
	for k := 0; k < n-1; k++ {
		i := order[k]
		node := nodes[i]
		inS[i] = true
		size++
		vol += g.Degree(node)
		// Each neighbor already in S converts a cut edge to internal; each
		// neighbor outside S adds a cut edge.
		for _, w := range g.Neighbors(node) {
			if inS[idx[w]] {
				cut--
			} else {
				cut++
			}
		}
		denom := vol
		if other := totalVol - vol; other < denom {
			denom = other
		}
		if denom > 0 {
			if phi := float64(cut) / float64(denom); phi < bestPhi {
				bestPhi = phi
			}
		}
		sz := size
		if other := n - size; other < sz {
			sz = other
		}
		if sz > 0 {
			if h := float64(cut) / float64(sz); h < bestH {
				bestH = h
			}
		}
	}
	if math.IsInf(bestPhi, 1) {
		bestPhi = 0
	}
	if math.IsInf(bestH, 1) {
		bestH = 0
	}
	return bestPhi, bestH
}

func sortByVec(order []int, vec []float64) {
	sort.Slice(order, func(a, b int) bool { return vec[order[a]] < vec[order[b]] })
}
