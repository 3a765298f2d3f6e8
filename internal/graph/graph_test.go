package graph

import (
	"errors"
	"slices"
	"testing"
)

func mustAddNodes(t *testing.T, g *Graph, ids ...NodeID) {
	t.Helper()
	for _, id := range ids {
		if err := g.AddNode(id); err != nil {
			t.Fatalf("AddNode(%d): %v", id, err)
		}
	}
}

func mustAddEdges(t *testing.T, g *Graph, pairs ...[2]NodeID) {
	t.Helper()
	for _, p := range pairs {
		if err := g.AddEdge(p[0], p[1]); err != nil {
			t.Fatalf("AddEdge(%d,%d): %v", p[0], p[1], err)
		}
	}
}

func pathGraph(t *testing.T, n int) *Graph {
	t.Helper()
	g := New()
	for i := 0; i < n; i++ {
		mustAddNodes(t, g, NodeID(i))
	}
	for i := 0; i+1 < n; i++ {
		mustAddEdges(t, g, [2]NodeID{NodeID(i), NodeID(i + 1)})
	}
	return g
}

func TestNewEdgeCanonical(t *testing.T) {
	e := NewEdge(5, 2)
	if e.U != 2 || e.V != 5 {
		t.Fatalf("NewEdge(5,2) = %v, want (2,5)", e)
	}
	if got := e.Other(2); got != 5 {
		t.Fatalf("Other(2) = %d, want 5", got)
	}
	if got := e.Other(5); got != 2 {
		t.Fatalf("Other(5) = %d, want 2", got)
	}
}

func TestEdgeOtherPanicsOnNonEndpoint(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Other on non-endpoint did not panic")
		}
	}()
	NewEdge(1, 2).Other(3)
}

func TestAddRemoveNode(t *testing.T) {
	g := New()
	mustAddNodes(t, g, 1, 2, 3)
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
	seen := map[NodeID]bool{}
	g.ForEachNode(func(n NodeID) { seen[n] = true })
	if len(seen) != 3 || !seen[1] || !seen[2] || !seen[3] {
		t.Fatalf("ForEachNode visited %v, want {1,2,3}", seen)
	}
	if err := g.AddNode(2); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("duplicate AddNode error = %v, want ErrNodeExists", err)
	}
	mustAddEdges(t, g, [2]NodeID{1, 2}, [2]NodeID{2, 3})
	nbrs, err := g.RemoveNode(2)
	if err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	if len(nbrs) != 2 || nbrs[0] != 1 || nbrs[1] != 3 {
		t.Fatalf("RemoveNode neighbors = %v, want [1 3]", nbrs)
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges after removal = %d, want 0", g.NumEdges())
	}
	if _, err := g.RemoveNode(2); !errors.Is(err, ErrNodeMissing) {
		t.Fatalf("RemoveNode missing error = %v, want ErrNodeMissing", err)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New()
	mustAddNodes(t, g, 1, 2)
	if err := g.AddEdge(1, 1); !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("self loop error = %v, want ErrSelfLoop", err)
	}
	if err := g.AddEdge(1, 9); !errors.Is(err, ErrNodeMissing) {
		t.Fatalf("missing endpoint error = %v, want ErrNodeMissing", err)
	}
	mustAddEdges(t, g, [2]NodeID{1, 2})
	if err := g.AddEdge(2, 1); !errors.Is(err, ErrEdgeExists) {
		t.Fatalf("duplicate edge error = %v, want ErrEdgeExists", err)
	}
	if err := g.RemoveEdge(1, 2); err != nil {
		t.Fatalf("RemoveEdge: %v", err)
	}
	if err := g.RemoveEdge(1, 2); !errors.Is(err, ErrEdgeMissing) {
		t.Fatalf("RemoveEdge missing error = %v, want ErrEdgeMissing", err)
	}
}

func TestEnsureEdge(t *testing.T) {
	g := New()
	if !g.EnsureEdge(4, 7) {
		t.Fatal("EnsureEdge on fresh pair = false, want true")
	}
	if g.EnsureEdge(7, 4) {
		t.Fatal("EnsureEdge on existing pair = true, want false")
	}
	if g.EnsureEdge(3, 3) {
		t.Fatal("EnsureEdge self loop = true, want false")
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("graph = %v, want 2 nodes 1 edge", g)
	}
}

func TestNeighborsSortedView(t *testing.T) {
	g := New()
	mustAddNodes(t, g, 1, 5, 3, 2)
	mustAddEdges(t, g, [2]NodeID{1, 5}, [2]NodeID{1, 3}, [2]NodeID{1, 2})
	nbrs := g.Neighbors(1)
	want := []NodeID{2, 3, 5}
	if len(nbrs) != len(want) {
		t.Fatalf("Neighbors = %v, want %v", nbrs, want)
	}
	for i := range want {
		if nbrs[i] != want[i] {
			t.Fatalf("Neighbors = %v, want %v", nbrs, want)
		}
	}
	if g.Neighbors(42) != nil {
		t.Fatal("Neighbors of absent node should be nil")
	}
}

func TestCachedViewsInvalidatedByMutation(t *testing.T) {
	g := New()
	mustAddNodes(t, g, 1, 2, 3)
	mustAddEdges(t, g, [2]NodeID{1, 2})

	nodes := g.Nodes()
	edges := g.Edges()

	// A retained Nodes or Edges view is a frozen snapshot: later mutations
	// must not write into it (rebuilds allocate fresh arrays).
	mustAddNodes(t, g, 4)
	mustAddEdges(t, g, [2]NodeID{1, 4})
	if len(nodes) != 3 || nodes[2] != 3 {
		t.Fatalf("retained Nodes view changed: %v", nodes)
	}
	if len(edges) != 1 {
		t.Fatalf("retained Edges view changed: %v", edges)
	}

	// Fresh calls reflect the mutation.
	if got := g.Nodes(); len(got) != 4 || got[3] != 4 {
		t.Fatalf("Nodes after mutation = %v", got)
	}
	if got := g.Neighbors(1); !slices.Equal(got, []NodeID{2, 4}) {
		t.Fatalf("Neighbors after mutation = %v", got)
	}
	if got := g.Edges(); len(got) != 2 {
		t.Fatalf("Edges after mutation = %v", got)
	}

	// Steady state: repeated calls return the identical cached slice.
	a, b := g.Nodes(), g.Nodes()
	if &a[0] != &b[0] {
		t.Fatal("steady-state Nodes calls returned different backing arrays")
	}
}

// TestRemoveNodeHandsOverNeighbors pins the other half of the Neighbors
// lifetime rule: the slice RemoveNode returns is the stored one, and from
// then on it belongs to the caller — nothing the graph does afterwards to
// the former neighbors, or to a new node with the same ID, writes into it.
func TestRemoveNodeHandsOverNeighbors(t *testing.T) {
	g := New()
	mustAddNodes(t, g, 1, 2, 3, 4, 5)
	mustAddEdges(t, g, [2]NodeID{2, 1}, [2]NodeID{2, 3}, [2]NodeID{2, 5}, [2]NodeID{3, 4})
	stored := g.Neighbors(2)
	nbrs, err := g.RemoveNode(2)
	if err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	want := []NodeID{1, 3, 5}
	if !slices.Equal(nbrs, want) {
		t.Fatalf("RemoveNode neighbors = %v, want %v", nbrs, want)
	}
	if &stored[0] != &nbrs[0] {
		t.Fatal("RemoveNode did not hand over the stored slice")
	}

	mustAddEdges(t, g, [2]NodeID{1, 3}, [2]NodeID{1, 5}) // repair among the former neighbors
	if err := g.RemoveEdge(3, 4); err != nil {
		t.Fatalf("RemoveEdge: %v", err)
	}
	if _, err := g.RemoveNode(3); err != nil {
		t.Fatalf("RemoveNode(3): %v", err)
	}
	mustAddNodes(t, g, 2) // the ID comes back
	if got := g.Neighbors(2); len(got) != 0 {
		t.Fatalf("re-added node starts with neighbors %v", got)
	}
	mustAddEdges(t, g, [2]NodeID{2, 4}, [2]NodeID{2, 1})
	if !slices.Equal(nbrs, want) {
		t.Fatalf("RemoveNode return changed to %v after later mutations, want %v", nbrs, want)
	}
	if got := g.Neighbors(2); !slices.Equal(got, []NodeID{1, 4}) {
		t.Fatalf("Neighbors of re-added node = %v, want [1 4]", got)
	}
}

func TestEdgesCanonicalOrder(t *testing.T) {
	g := New()
	mustAddNodes(t, g, 3, 1, 2)
	mustAddEdges(t, g, [2]NodeID{3, 1}, [2]NodeID{2, 3}, [2]NodeID{1, 2})
	edges := g.Edges()
	want := []Edge{{1, 2}, {1, 3}, {2, 3}}
	if len(edges) != len(want) {
		t.Fatalf("Edges = %v, want %v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("Edges = %v, want %v", edges, want)
		}
	}
}

func TestDegreeStats(t *testing.T) {
	g := pathGraph(t, 4) // 0-1-2-3
	if g.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %d, want 2", g.MaxDegree())
	}
	if g.MinDegree() != 1 {
		t.Fatalf("MinDegree = %d, want 1", g.MinDegree())
	}
	if got := g.Volume([]NodeID{0, 1}); got != 3 {
		t.Fatalf("Volume([0,1]) = %d, want 3", got)
	}
	empty := New()
	if empty.MaxDegree() != 0 || empty.MinDegree() != 0 {
		t.Fatal("empty graph degree stats should be 0")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := pathGraph(t, 5)
	sub := g.InducedSubgraph([]NodeID{0, 1, 2, 99})
	if sub.NumNodes() != 3 {
		t.Fatalf("sub nodes = %d, want 3", sub.NumNodes())
	}
	if sub.NumEdges() != 2 {
		t.Fatalf("sub edges = %d, want 2", sub.NumEdges())
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) {
		t.Fatal("induced subgraph missing expected edges")
	}
}

func TestCutSize(t *testing.T) {
	g := pathGraph(t, 4)
	s := map[NodeID]struct{}{0: {}, 1: {}}
	if got := g.CutSize(s); got != 1 {
		t.Fatalf("CutSize = %d, want 1", got)
	}
	s = map[NodeID]struct{}{1: {}, 3: {}}
	if got := g.CutSize(s); got != 3 {
		t.Fatalf("CutSize = %d, want 3", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := pathGraph(t, 3)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	if _, err := c.RemoveNode(1); err != nil {
		t.Fatalf("RemoveNode on clone: %v", err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatal("mutating clone affected original")
	}
	if g.Equal(c) {
		t.Fatal("graphs should differ after clone mutation")
	}
}

func TestEqual(t *testing.T) {
	a := pathGraph(t, 3)
	b := pathGraph(t, 3)
	if !a.Equal(b) {
		t.Fatal("identical path graphs not Equal")
	}
	// Same node/edge count, different wiring.
	c := New()
	mustAddNodes(t, c, 0, 1, 2)
	mustAddEdges(t, c, [2]NodeID{0, 1}, [2]NodeID{0, 2})
	if a.Equal(c) {
		t.Fatal("different graphs reported Equal")
	}
}
