package graph

// EdgeBetweenness returns, for every edge, the number of shortest paths
// between node pairs that traverse it (each unordered pair counted once,
// path counts split fractionally across ties) — Brandes' algorithm adapted
// to edges on unweighted graphs.
//
// This is the routing-congestion measure the Xheal paper motivates via the
// spectral gap (§1.1): if all pairs route along shortest paths, the most
// loaded link carries exactly the maximum edge betweenness.
func (g *Graph) EdgeBetweenness() map[Edge]float64 {
	out := make(map[Edge]float64, g.edges)
	nodes := g.Nodes()
	// Scratch structures reused across sources.
	sigma := make(map[NodeID]float64, len(nodes))
	dist := make(map[NodeID]int, len(nodes))
	delta := make(map[NodeID]float64, len(nodes))
	preds := make(map[NodeID][]NodeID, len(nodes))

	for _, s := range nodes {
		// BFS from s computing shortest-path counts and predecessors.
		for k := range sigma {
			delete(sigma, k)
		}
		for k := range dist {
			delete(dist, k)
		}
		for k := range delta {
			delete(delta, k)
		}
		for k := range preds {
			delete(preds, k)
		}
		var stack []NodeID
		sigma[s] = 1
		dist[s] = 0
		queue := []NodeID{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			stack = append(stack, v)
			for _, w := range g.adj[v] {
				dw, seen := dist[w]
				if !seen {
					dist[w] = dist[v] + 1
					dw = dist[w]
					queue = append(queue, w)
				}
				if dw == dist[v]+1 {
					sigma[w] += sigma[v]
					preds[w] = append(preds[w], v)
				}
			}
		}
		// Dependency accumulation in reverse BFS order.
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			for _, v := range preds[w] {
				c := sigma[v] / sigma[w] * (1 + delta[w])
				out[NewEdge(v, w)] += c
				delta[v] += c
			}
		}
	}
	// Each unordered pair was counted from both endpoints.
	for e := range out {
		out[e] /= 2
	}
	return out
}

// MaxEdgeBetweenness returns the maximum and mean edge betweenness — the
// worst and average link congestion under all-pairs shortest-path routing.
// Zero for graphs with no edges.
func (g *Graph) MaxEdgeBetweenness() (maxLoad, meanLoad float64) {
	bc := g.EdgeBetweenness()
	if len(bc) == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, v := range bc {
		if v > maxLoad {
			maxLoad = v
		}
		sum += v
	}
	return maxLoad, sum / float64(len(bc))
}

// ArticulationPoints returns the cut vertices of g (nodes whose removal
// disconnects their component), ascending — Tarjan's low-link DFS. These
// are an adversary's most damaging targets.
func (g *Graph) ArticulationPoints() []NodeID {
	index := make(map[NodeID]int, len(g.adj))
	low := make(map[NodeID]int, len(g.adj))
	isCut := make(map[NodeID]bool)
	counter := 0

	// Iterative DFS to avoid recursion depth limits on path-like graphs.
	type frame struct {
		node, parent NodeID
		nbrs         []NodeID
		next         int
		children     int
	}
	for _, root := range g.Nodes() {
		if _, seen := index[root]; seen {
			continue
		}
		counter++
		index[root] = counter
		low[root] = counter
		stack := []frame{{node: root, parent: root, nbrs: g.Neighbors(root)}}
		rootChildren := 0
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(f.nbrs) {
				w := f.nbrs[f.next]
				f.next++
				if w == f.parent {
					continue
				}
				if wi, seen := index[w]; seen {
					if wi < low[f.node] {
						low[f.node] = wi
					}
					continue
				}
				counter++
				index[w] = counter
				low[w] = counter
				f.children++
				if f.node == root {
					rootChildren++
				}
				stack = append(stack, frame{node: w, parent: f.node, nbrs: g.Neighbors(w)})
				continue
			}
			// Post-order: propagate low-link to parent.
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				p := &stack[len(stack)-1]
				if low[f.node] < low[p.node] {
					low[p.node] = low[f.node]
				}
				if p.node != root && low[f.node] >= index[p.node] {
					isCut[p.node] = true
				}
			}
		}
		if rootChildren >= 2 {
			isCut[root] = true
		}
	}
	out := make([]NodeID, 0, len(isCut))
	for n := range isCut {
		out = append(out, n)
	}
	sortNodeIDs(out)
	return out
}
