package graph

import "sort"

// Unreachable is the distance reported for node pairs with no connecting path.
const Unreachable = -1

// BFSFrom returns the BFS distance (in hops) from src to every reachable
// node. Unreachable nodes are absent from the map. Returns nil if src is not
// in the graph.
func (g *Graph) BFSFrom(src NodeID) map[NodeID]int {
	if !g.HasNode(src) {
		return nil
	}
	dist := make(map[NodeID]int, len(g.adj))
	dist[src] = 0
	queue := make([]NodeID, 0, len(g.adj))
	queue = append(queue, src)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		d := dist[n]
		for _, w := range g.adj[n] {
			if _, seen := dist[w]; !seen {
				dist[w] = d + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Distance returns the hop distance between u and v, or Unreachable if there
// is no path (or either endpoint is absent).
func (g *Graph) Distance(u, v NodeID) int {
	if !g.HasNode(u) || !g.HasNode(v) {
		return Unreachable
	}
	if u == v {
		return 0
	}
	// Bidirectional BFS keeps stretch measurement affordable on large graphs.
	distU := map[NodeID]int{u: 0}
	distV := map[NodeID]int{v: 0}
	frontierU := []NodeID{u}
	frontierV := []NodeID{v}
	for len(frontierU) > 0 && len(frontierV) > 0 {
		// Expand the smaller frontier.
		if len(frontierU) > len(frontierV) {
			distU, distV = distV, distU
			frontierU, frontierV = frontierV, frontierU
		}
		next := make([]NodeID, 0, len(frontierU)*2)
		for _, n := range frontierU {
			d := distU[n]
			for _, w := range g.adj[n] {
				if dv, ok := distV[w]; ok {
					return d + 1 + dv
				}
				if _, seen := distU[w]; !seen {
					distU[w] = d + 1
					next = append(next, w)
				}
			}
		}
		frontierU = next
	}
	return Unreachable
}

// IsConnected reports whether the graph is connected. The empty graph is
// considered connected.
func (g *Graph) IsConnected() bool {
	if len(g.adj) == 0 {
		return true
	}
	var src NodeID
	for n := range g.adj {
		src = n
		break
	}
	return len(g.BFSFrom(src)) == len(g.adj)
}

// Components returns the connected components, each sorted ascending, ordered
// by their smallest member.
func (g *Graph) Components() [][]NodeID {
	seen := make(map[NodeID]struct{}, len(g.adj))
	var comps [][]NodeID
	for _, start := range g.Nodes() {
		if _, ok := seen[start]; ok {
			continue
		}
		dist := g.BFSFrom(start)
		comp := make([]NodeID, 0, len(dist))
		for n := range dist {
			seen[n] = struct{}{}
			comp = append(comp, n)
		}
		sortNodeIDs(comp)
		comps = append(comps, comp)
	}
	return comps
}

// LargestComponent returns the node set of the largest connected component
// (ties broken by smallest member), or nil for an empty graph.
func (g *Graph) LargestComponent() []NodeID {
	var best []NodeID
	for _, comp := range g.Components() {
		if len(comp) > len(best) {
			best = comp
		}
	}
	return best
}

// Eccentricity returns the maximum BFS distance from n to any reachable node.
func (g *Graph) Eccentricity(n NodeID) int {
	ecc := 0
	for _, d := range g.BFSFrom(n) {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the exact diameter of the graph (maximum pairwise
// distance). It returns ErrEmptyGraph for an empty graph and ErrDisconnected
// if the graph has more than one component. Cost is O(n·m): intended for
// measurement on small and medium graphs.
func (g *Graph) Diameter() (int, error) {
	if len(g.adj) == 0 {
		return 0, ErrEmptyGraph
	}
	diam := 0
	for n := range g.adj {
		dist := g.BFSFrom(n)
		if len(dist) != len(g.adj) {
			return 0, ErrDisconnected
		}
		for _, d := range dist {
			if d > diam {
				diam = d
			}
		}
	}
	return diam, nil
}

// ShortestPath returns one shortest path from src to dst inclusive, or nil if
// unreachable. Neighbors are explored in ascending order, so among the equal
// shortest paths the same one is returned on every run (callers like the
// path-dismantling adversary and route repair rely on reproducibility).
func (g *Graph) ShortestPath(src, dst NodeID) []NodeID {
	if !g.HasNode(src) || !g.HasNode(dst) {
		return nil
	}
	if src == dst {
		return []NodeID{src}
	}
	parent := map[NodeID]NodeID{src: src}
	queue := []NodeID{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(n) {
			if _, seen := parent[w]; seen {
				continue
			}
			parent[w] = n
			if w == dst {
				return buildPath(parent, src, dst)
			}
			queue = append(queue, w)
		}
	}
	return nil
}

func buildPath(parent map[NodeID]NodeID, src, dst NodeID) []NodeID {
	var rev []NodeID
	for n := dst; ; n = parent[n] {
		rev = append(rev, n)
		if n == src {
			break
		}
	}
	out := make([]NodeID, len(rev))
	for i, n := range rev {
		out[len(rev)-1-i] = n
	}
	return out
}

func sortNodeIDs(ids []NodeID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
