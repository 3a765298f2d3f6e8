package hgraph

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"github.com/xheal/xheal/internal/graph"
)

// MinSize is the smallest vertex set an H-graph is defined over.
const MinSize = 3

// Sentinel errors.
var (
	ErrTooSmall    = errors.New("hgraph: vertex set smaller than 3")
	ErrBadDegree   = errors.New("hgraph: cycle count d must be >= 1")
	ErrMember      = errors.New("hgraph: node already a member")
	ErrNotMember   = errors.New("hgraph: node is not a member")
	ErrWouldShrink = errors.New("hgraph: delete would shrink below minimum size")
)

// H is a random H-graph: d Hamilton cycles over a common vertex set. The
// nominal (multigraph) degree of every vertex is exactly 2d; the simple
// degree after collapsing parallel edges is at most 2d.
//
// H is not safe for concurrent use.
type H struct {
	d    int
	succ []map[graph.NodeID]graph.NodeID // successor on cycle i
	pred []map[graph.NodeID]graph.NodeID // predecessor on cycle i
	// order/pos support O(1) uniform sampling of an existing member.
	order []graph.NodeID
	pos   map[graph.NodeID]int
	rng   *rand.Rand
}

// New constructs a random H-graph with d independent uniform Hamilton cycles
// over the given vertices (at least MinSize, duplicates rejected).
func New(d int, vertices []graph.NodeID, rng *rand.Rand) (*H, error) {
	if d < 1 {
		return nil, fmt.Errorf("new H-graph with d=%d: %w", d, ErrBadDegree)
	}
	if len(vertices) < MinSize {
		return nil, fmt.Errorf("new H-graph over %d vertices: %w", len(vertices), ErrTooSmall)
	}
	h := &H{
		d:     d,
		succ:  make([]map[graph.NodeID]graph.NodeID, d),
		pred:  make([]map[graph.NodeID]graph.NodeID, d),
		order: make([]graph.NodeID, 0, len(vertices)),
		pos:   make(map[graph.NodeID]int, len(vertices)),
		rng:   rng,
	}
	for _, v := range vertices {
		if _, dup := h.pos[v]; dup {
			return nil, fmt.Errorf("new H-graph: vertex %d: %w", v, ErrMember)
		}
		h.pos[v] = len(h.order)
		h.order = append(h.order, v)
	}
	perm := make([]graph.NodeID, len(h.order))
	for i := 0; i < d; i++ {
		h.succ[i] = make(map[graph.NodeID]graph.NodeID, len(h.order))
		h.pred[i] = make(map[graph.NodeID]graph.NodeID, len(h.order))
		// A uniform random Hamilton cycle is a uniform random cyclic order.
		copy(perm, h.order)
		rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		for j, v := range perm {
			w := perm[(j+1)%len(perm)]
			h.succ[i][v] = w
			h.pred[i][w] = v
		}
	}
	return h, nil
}

// D returns the number of Hamilton cycles (nominal degree is 2D).
func (h *H) D() int { return h.d }

// Size returns the number of member vertices.
func (h *H) Size() int { return len(h.order) }

// Contains reports whether v is a member.
func (h *H) Contains(v graph.NodeID) bool {
	_, ok := h.pos[v]
	return ok
}

// Members returns the member vertices in ascending order.
func (h *H) Members() []graph.NodeID {
	out := make([]graph.NodeID, len(h.order))
	copy(out, h.order)
	slices.Sort(out)
	return out
}

// Insert splices u into each cycle at an independently chosen uniform random
// position (the paper's INSERT operation): u is placed between a random
// member v and its successor.
func (h *H) Insert(u graph.NodeID) error {
	if h.Contains(u) {
		return fmt.Errorf("insert %d: %w", u, ErrMember)
	}
	for i := 0; i < h.d; i++ {
		v := h.order[h.rng.Intn(len(h.order))]
		next := h.succ[i][v]
		h.succ[i][v] = u
		h.succ[i][u] = next
		h.pred[i][u] = v
		h.pred[i][next] = u
	}
	h.pos[u] = len(h.order)
	h.order = append(h.order, u)
	return nil
}

// Delete removes u from each cycle by joining its predecessor and successor
// (the paper's DELETE operation). Deleting below MinSize is rejected; the
// caller (the expander cloud layer) switches to a clique before that point.
func (h *H) Delete(u graph.NodeID) error {
	if !h.Contains(u) {
		return fmt.Errorf("delete %d: %w", u, ErrNotMember)
	}
	if len(h.order) <= MinSize {
		return fmt.Errorf("delete %d from size-%d H-graph: %w", u, len(h.order), ErrWouldShrink)
	}
	for i := 0; i < h.d; i++ {
		p := h.pred[i][u]
		s := h.succ[i][u]
		h.succ[i][p] = s
		h.pred[i][s] = p
		delete(h.succ[i], u)
		delete(h.pred[i], u)
	}
	// Swap-remove from the sampling order.
	j := h.pos[u]
	last := h.order[len(h.order)-1]
	h.order[j] = last
	h.pos[last] = j
	h.order = h.order[:len(h.order)-1]
	delete(h.pos, u)
	return nil
}

// Neighbors returns the distinct cycle neighbors of v (its simple-graph
// adjacency), ascending.
func (h *H) Neighbors(v graph.NodeID) []graph.NodeID {
	if !h.Contains(v) {
		return nil
	}
	set := make(map[graph.NodeID]struct{}, 2*h.d)
	for i := 0; i < h.d; i++ {
		set[h.succ[i][v]] = struct{}{}
		set[h.pred[i][v]] = struct{}{}
	}
	out := make([]graph.NodeID, 0, len(set))
	for w := range set {
		out = append(out, w)
	}
	slices.Sort(out)
	return out
}

// Edges returns the simple edge set (parallel cycle edges collapsed), in
// canonical order.
func (h *H) Edges() []graph.Edge {
	set := make(map[graph.Edge]struct{}, h.d*len(h.order))
	for i := 0; i < h.d; i++ {
		for v, w := range h.succ[i] {
			set[graph.NewEdge(v, w)] = struct{}{}
		}
	}
	out := make([]graph.Edge, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	slices.SortFunc(out, graph.CompareEdges)
	return out
}

// Graph materializes the simple graph induced by the H-graph.
func (h *H) Graph() *graph.Graph {
	g := graph.New()
	for _, v := range h.order {
		g.EnsureNode(v)
	}
	for _, e := range h.Edges() {
		g.EnsureEdge(e.U, e.V)
	}
	return g
}

// SuccessorOn returns the successor of v on cycle i, for tests and the
// stationarity experiment.
func (h *H) SuccessorOn(i int, v graph.NodeID) (graph.NodeID, bool) {
	if i < 0 || i >= h.d {
		return 0, false
	}
	w, ok := h.succ[i][v]
	return w, ok
}

// Validate checks the structural invariants: every cycle is a single
// Hamiltonian cycle over the full member set with consistent pred/succ maps.
// It returns nil when the H-graph is well formed.
func (h *H) Validate() error {
	n := len(h.order)
	if n < MinSize {
		return fmt.Errorf("validate: size %d: %w", n, ErrTooSmall)
	}
	if len(h.pos) != n {
		return errors.New("hgraph: pos/order size mismatch")
	}
	for i := 0; i < h.d; i++ {
		if len(h.succ[i]) != n || len(h.pred[i]) != n {
			return fmt.Errorf("hgraph: cycle %d has wrong map sizes", i)
		}
		for v, w := range h.succ[i] {
			if h.pred[i][w] != v {
				return fmt.Errorf("hgraph: cycle %d pred/succ inconsistent at %d->%d", i, v, w)
			}
			if v == w {
				return fmt.Errorf("hgraph: cycle %d has self loop at %d", i, v)
			}
		}
		// Single cycle covering all members.
		start := h.order[0]
		seen := 1
		for v := h.succ[i][start]; v != start; v = h.succ[i][v] {
			seen++
			if seen > n {
				return fmt.Errorf("hgraph: cycle %d does not close", i)
			}
		}
		if seen != n {
			return fmt.Errorf("hgraph: cycle %d covers %d of %d members", i, seen, n)
		}
	}
	return nil
}
