package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// NodeID identifies a node. IDs are assigned by callers (the harness uses
// small dense integers; the distributed engine uses them as addresses).
type NodeID int

// Edge is an unordered pair of node IDs. Canonical form has U <= V.
type Edge struct {
	U, V NodeID
}

// NewEdge returns the canonical (U <= V) form of the edge {u, v}.
func NewEdge(u, v NodeID) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// Other returns the endpoint of e that is not n. It panics if n is not an
// endpoint; callers are expected to hold an incident edge.
func (e Edge) Other(n NodeID) NodeID {
	switch n {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %v", n, e))
}

// String implements fmt.Stringer.
func (e Edge) String() string { return fmt.Sprintf("(%d,%d)", e.U, e.V) }

// CompareEdges orders edges by (U, V), the canonical table order — the one
// comparator every sorted edge list in the repository uses. cmp.Compare is
// overflow-safe for the full caller-assigned NodeID range (a subtraction
// would wrap for far-apart IDs).
func CompareEdges(a, b Edge) int {
	if c := cmp.Compare(a.U, b.U); c != 0 {
		return c
	}
	return cmp.Compare(a.V, b.V)
}

// Sentinel errors returned by mutating operations.
var (
	ErrNodeExists   = errors.New("graph: node already exists")
	ErrNodeMissing  = errors.New("graph: node does not exist")
	ErrEdgeExists   = errors.New("graph: edge already exists")
	ErrEdgeMissing  = errors.New("graph: edge does not exist")
	ErrSelfLoop     = errors.New("graph: self loops are not allowed")
	ErrEmptyGraph   = errors.New("graph: graph has no nodes")
	ErrDisconnected = errors.New("graph: graph is not connected")
)

// Graph is a dynamic undirected simple graph. Each node's neighbors are
// stored as one ascending slice — the order every caller iterates in — so
// Neighbors serves the stored slice and nothing per node is derived on read.
//
// The zero value is not usable; call New.
type Graph struct {
	adj   map[NodeID][]NodeID // ascending; non-nil for every present node
	edges int

	// gen counts mutations. The Nodes and Edges views record the gen they
	// were built at and are served only while it still matches. It starts at
	// 1 so the zero-valued view gens are never mistaken for fresh.
	gen      uint64
	nodesGen uint64
	nodes    []NodeID
	edgesGen uint64
	edgeList []Edge
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{adj: make(map[NodeID][]NodeID), gen: 1}
}

// Clone returns a deep copy of g. The Nodes and Edges views are not copied;
// the clone materializes its own on demand.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		adj:   make(map[NodeID][]NodeID, len(g.adj)),
		edges: g.edges,
		gen:   1,
	}
	for n, nbrs := range g.adj {
		c.adj[n] = slices.Clone(nbrs)
	}
	return c
}

// Generation returns the graph's mutation counter: it changes on every
// structural mutation, so equal generations of the *same* Graph imply an
// unchanged structure. Clones restart at 1 — the counter identifies
// versions of one graph, not graphs.
func (g *Graph) Generation() uint64 { return g.gen }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.edges }

// HasNode reports whether n is present.
func (g *Graph) HasNode(n NodeID) bool {
	_, ok := g.adj[n]
	return ok
}

// HasEdge reports whether the edge {u, v} is present.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := slices.BinarySearch(g.adj[u], v)
	return ok
}

// Degree returns the degree of n, or 0 if n is absent.
func (g *Graph) Degree(n NodeID) int { return len(g.adj[n]) }

// AddNode inserts an isolated node. It returns ErrNodeExists if n is present.
func (g *Graph) AddNode(n NodeID) error {
	if !g.EnsureNode(n) {
		return fmt.Errorf("add node %d: %w", n, ErrNodeExists)
	}
	return nil
}

// EnsureNode inserts n if absent and reports whether it was inserted.
func (g *Graph) EnsureNode(n NodeID) bool {
	if g.HasNode(n) {
		return false
	}
	g.adj[n] = []NodeID{}
	g.gen++
	return true
}

// RemoveNode deletes n and all incident edges, returning the neighbors it had
// (ascending). It returns ErrNodeMissing if n is absent. The returned slice
// is the one the graph stored for n, handed over: the caller owns it and the
// graph never writes it again, whatever happens to n's former neighbors or
// to a later node with the same ID.
func (g *Graph) RemoveNode(n NodeID) ([]NodeID, error) {
	nbrs, ok := g.adj[n]
	if !ok {
		return nil, fmt.Errorf("remove node %d: %w", n, ErrNodeMissing)
	}
	for _, w := range nbrs {
		g.unlink(w, n)
	}
	delete(g.adj, n)
	g.edges -= len(nbrs)
	g.gen++
	return nbrs, nil
}

// AddEdge inserts the edge {u, v}. Both endpoints must exist; self loops and
// duplicate edges are rejected.
func (g *Graph) AddEdge(u, v NodeID) error {
	if u == v {
		return fmt.Errorf("add edge (%d,%d): %w", u, v, ErrSelfLoop)
	}
	if !g.HasNode(u) {
		return fmt.Errorf("add edge (%d,%d): endpoint %d: %w", u, v, u, ErrNodeMissing)
	}
	if !g.HasNode(v) {
		return fmt.Errorf("add edge (%d,%d): endpoint %d: %w", u, v, v, ErrNodeMissing)
	}
	if !g.link(u, v) {
		return fmt.Errorf("add edge (%d,%d): %w", u, v, ErrEdgeExists)
	}
	return nil
}

// EnsureEdge inserts {u, v} if absent (creating endpoints as needed) and
// reports whether a new edge was created. Self loops are ignored.
func (g *Graph) EnsureEdge(u, v NodeID) bool {
	if u == v {
		return false
	}
	g.EnsureNode(u)
	g.EnsureNode(v)
	return g.link(u, v)
}

// RemoveEdge deletes the edge {u, v}. It returns ErrEdgeMissing if absent.
func (g *Graph) RemoveEdge(u, v NodeID) error {
	if !g.HasEdge(u, v) {
		return fmt.Errorf("remove edge (%d,%d): %w", u, v, ErrEdgeMissing)
	}
	g.unlink(u, v)
	g.unlink(v, u)
	g.edges--
	g.gen++
	return nil
}

// link inserts the edge between two distinct present nodes, keeping both
// neighbor slices ascending, and reports whether it was absent.
func (g *Graph) link(u, v NodeID) bool {
	nu, nv := g.adj[u], g.adj[v]
	i, found := slices.BinarySearch(nu, v)
	if found {
		return false
	}
	j, _ := slices.BinarySearch(nv, u)
	g.adj[u] = slices.Insert(nu, i, v)
	g.adj[v] = slices.Insert(nv, j, u)
	g.edges++
	g.gen++
	return true
}

// unlink removes w, which must be there, from n's neighbor slice in place.
func (g *Graph) unlink(n, w NodeID) {
	nbrs := g.adj[n]
	i, _ := slices.BinarySearch(nbrs, w)
	g.adj[n] = slices.Delete(nbrs, i, i+1)
}

// Nodes returns all node IDs in ascending order. The slice is a cached
// read-only view: it must not be modified, and it stops tracking the graph
// at the next mutation (see the package comment).
func (g *Graph) Nodes() []NodeID {
	if g.nodesGen != g.gen {
		nodes := make([]NodeID, 0, len(g.adj))
		for n := range g.adj {
			nodes = append(nodes, n)
		}
		slices.Sort(nodes)
		g.nodes, g.nodesGen = nodes, g.gen
	}
	return g.nodes
}

// ForEachNode calls fn for every node in unspecified order, with zero
// allocations.
func (g *Graph) ForEachNode(fn func(NodeID)) {
	for n := range g.adj {
		fn(n)
	}
}

// Neighbors returns the neighbors of n in ascending order, or nil if n is
// absent. The slice is the graph's own storage: it must not be modified, and
// it is valid only until the graph's next mutation, which may rewrite it in
// place (see the package comment).
func (g *Graph) Neighbors(n NodeID) []NodeID { return g.adj[n] }

// Edges returns every edge once, in canonical sorted order. The slice is a
// cached read-only view: it must not be modified, and it stops tracking the
// graph at the next mutation (see the package comment).
func (g *Graph) Edges() []Edge {
	if g.edgesGen != g.gen {
		out := make([]Edge, 0, g.edges)
		for _, u := range g.Nodes() {
			for _, v := range g.adj[u] {
				if u < v {
					out = append(out, Edge{U: u, V: v})
				}
			}
		}
		g.edgeList, g.edgesGen = out, g.gen
	}
	return g.edgeList
}

// MaxDegree returns the maximum degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	best := 0
	for _, nbrs := range g.adj {
		if len(nbrs) > best {
			best = len(nbrs)
		}
	}
	return best
}

// MinDegree returns the minimum degree, or 0 for an empty graph.
func (g *Graph) MinDegree() int {
	if len(g.adj) == 0 {
		return 0
	}
	best := -1
	for _, nbrs := range g.adj {
		if best < 0 || len(nbrs) < best {
			best = len(nbrs)
		}
	}
	return best
}

// Volume returns the sum of degrees of the given node set (2|E| over all
// nodes). Absent nodes contribute zero.
func (g *Graph) Volume(nodes []NodeID) int {
	total := 0
	for _, n := range nodes {
		total += len(g.adj[n])
	}
	return total
}

// InducedSubgraph returns the subgraph induced by keep. Nodes absent from g
// are ignored.
func (g *Graph) InducedSubgraph(keep []NodeID) *Graph {
	set := make(map[NodeID]struct{}, len(keep))
	sub := New()
	for _, n := range keep {
		if g.HasNode(n) {
			set[n] = struct{}{}
			sub.EnsureNode(n)
		}
	}
	for n := range set {
		for _, w := range g.adj[n] {
			if _, ok := set[w]; ok && n < w {
				sub.EnsureEdge(n, w)
			}
		}
	}
	return sub
}

// CutSize returns |E(S, V-S)|: the number of edges with exactly one endpoint
// in s. Nodes in s absent from g are ignored.
func (g *Graph) CutSize(s map[NodeID]struct{}) int {
	cut := 0
	for n := range s {
		for _, w := range g.adj[n] {
			if _, in := s[w]; !in {
				cut++
			}
		}
	}
	return cut
}

// Equal reports whether g and h have identical node and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.NumNodes() != h.NumNodes() || g.NumEdges() != h.NumEdges() {
		return false
	}
	for n, nbrs := range g.adj {
		if hn, ok := h.adj[n]; !ok || !slices.Equal(nbrs, hn) {
			return false
		}
	}
	return true
}

// String returns a compact human-readable rendering, e.g. for test failures.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph{n=%d m=%d}", g.NumNodes(), g.NumEdges())
}
