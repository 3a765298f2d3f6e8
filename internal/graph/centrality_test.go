package graph

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEdgeBetweennessPath(t *testing.T) {
	// Path 0-1-2-3: edge (i,i+1) carries (i+1)*(n-1-i) pairs.
	g := pathGraph(t, 4)
	bc := g.EdgeBetweenness()
	want := map[Edge]float64{
		{0, 1}: 3, // pairs {0,1},{0,2},{0,3}
		{1, 2}: 4, // pairs {0,2},{0,3},{1,2},{1,3}
		{2, 3}: 3,
	}
	for e, w := range want {
		if !almostEqual(bc[e], w) {
			t.Fatalf("betweenness%v = %v, want %v", e, bc[e], w)
		}
	}
}

func TestEdgeBetweennessCompleteUniform(t *testing.T) {
	// K_4: every pair adjacent, each edge carries exactly its own pair.
	g := New()
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.EnsureEdge(NodeID(i), NodeID(j))
		}
	}
	bc := g.EdgeBetweenness()
	for e, v := range bc {
		if !almostEqual(v, 1) {
			t.Fatalf("K4 edge %v betweenness = %v, want 1", e, v)
		}
	}
}

func TestEdgeBetweennessSplitsTies(t *testing.T) {
	// 4-cycle: antipodal pairs have two shortest paths, each edge carrying
	// half; total per edge = own pair (1) + 2 antipodal halves (0.5+0.5) = 2.
	g := cycleGraph(t, 4)
	bc := g.EdgeBetweenness()
	for e, v := range bc {
		if !almostEqual(v, 2) {
			t.Fatalf("C4 edge %v betweenness = %v, want 2", e, v)
		}
	}
}

func TestEdgeBetweennessStarHub(t *testing.T) {
	// Star K_{1,5}: each spoke carries its own pair plus 4 two-hop pairs...
	// exactly 1 + (n-1-1) = 5 with n-1=5 leaves: pairs through spoke (0,i):
	// {0,i} plus {i,j} for j != i (4 of them) = 5.
	g := New()
	for i := 1; i <= 5; i++ {
		g.EnsureEdge(0, NodeID(i))
	}
	bc := g.EdgeBetweenness()
	for e, v := range bc {
		if !almostEqual(v, 5) {
			t.Fatalf("star spoke %v betweenness = %v, want 5", e, v)
		}
	}
	maxLoad, meanLoad := g.MaxEdgeBetweenness()
	if !almostEqual(maxLoad, 5) || !almostEqual(meanLoad, 5) {
		t.Fatalf("max/mean = %v/%v, want 5/5", maxLoad, meanLoad)
	}
}

func TestMaxEdgeBetweennessEmpty(t *testing.T) {
	g := New()
	g.EnsureNode(1)
	maxLoad, meanLoad := g.MaxEdgeBetweenness()
	if maxLoad != 0 || meanLoad != 0 {
		t.Fatalf("empty betweenness = %v/%v, want 0/0", maxLoad, meanLoad)
	}
}

func TestArticulationPointsPath(t *testing.T) {
	g := pathGraph(t, 5) // interior nodes 1,2,3 are cut vertices
	cuts := g.ArticulationPoints()
	want := []NodeID{1, 2, 3}
	if len(cuts) != len(want) {
		t.Fatalf("cut vertices = %v, want %v", cuts, want)
	}
	for i := range want {
		if cuts[i] != want[i] {
			t.Fatalf("cut vertices = %v, want %v", cuts, want)
		}
	}
}

func TestArticulationPointsCycleNone(t *testing.T) {
	g := cycleGraph(t, 6)
	if cuts := g.ArticulationPoints(); len(cuts) != 0 {
		t.Fatalf("cycle should have no cut vertices, got %v", cuts)
	}
}

func TestArticulationPointsStarHub(t *testing.T) {
	g := New()
	for i := 1; i <= 4; i++ {
		g.EnsureEdge(0, NodeID(i))
	}
	cuts := g.ArticulationPoints()
	if len(cuts) != 1 || cuts[0] != 0 {
		t.Fatalf("star cut vertices = %v, want [0]", cuts)
	}
}

func TestArticulationPointsTwoTriangles(t *testing.T) {
	// Two triangles sharing node 2: node 2 is the unique cut vertex.
	g := New()
	g.EnsureEdge(0, 1)
	g.EnsureEdge(1, 2)
	g.EnsureEdge(2, 0)
	g.EnsureEdge(2, 3)
	g.EnsureEdge(3, 4)
	g.EnsureEdge(4, 2)
	cuts := g.ArticulationPoints()
	if len(cuts) != 1 || cuts[0] != 2 {
		t.Fatalf("cut vertices = %v, want [2]", cuts)
	}
}

func TestArticulationPointsDisconnected(t *testing.T) {
	g := New()
	g.EnsureEdge(0, 1)
	g.EnsureEdge(1, 2) // component A: 1 is a cut vertex
	g.EnsureEdge(10, 11)
	cuts := g.ArticulationPoints()
	if len(cuts) != 1 || cuts[0] != 1 {
		t.Fatalf("cut vertices = %v, want [1]", cuts)
	}
}

// TestArticulationRemovalDisconnects cross-checks the definition: removing
// any reported cut vertex must increase the component count of its
// component; removing a non-cut vertex must not.
func TestArticulationRemovalDisconnects(t *testing.T) {
	// A mixed graph: two triangles bridged by a path.
	g := New()
	g.EnsureEdge(0, 1)
	g.EnsureEdge(1, 2)
	g.EnsureEdge(2, 0)
	g.EnsureEdge(2, 3)
	g.EnsureEdge(3, 4)
	g.EnsureEdge(4, 5)
	g.EnsureEdge(5, 6)
	g.EnsureEdge(6, 4)
	cutSet := map[NodeID]bool{}
	for _, c := range g.ArticulationPoints() {
		cutSet[c] = true
	}
	for _, n := range g.Nodes() {
		h := g.Clone()
		if _, err := h.RemoveNode(n); err != nil {
			t.Fatalf("RemoveNode: %v", err)
		}
		disconnected := len(h.Components()) > 1
		if cutSet[n] != disconnected {
			t.Fatalf("node %d: cut=%v but removal disconnects=%v", n, cutSet[n], disconnected)
		}
	}
}

// TestTraversalBitReproducible pins the determinism the stored sorted
// slices give for free: traversals visit neighbors in ascending order, so
// Brandes' float accumulation order — and with it every bit of every
// betweenness value — depends on the graph alone, not on the run or on the
// order the edges were inserted in.
func TestTraversalBitReproducible(t *testing.T) {
	edges := slices.Clone(allocGraph(t).Edges()) // 64 nodes, ring plus chords
	build := func(seed int64) *Graph {
		rand.New(rand.NewSource(seed)).Shuffle(len(edges), func(i, j int) {
			edges[i], edges[j] = edges[j], edges[i]
		})
		g := New()
		for _, e := range edges {
			g.EnsureEdge(e.V, e.U)
		}
		// Break the symmetry so shortest-path counts are not all dyadic.
		for _, n := range []NodeID{3, 17, 40} {
			if _, err := g.RemoveNode(n); err != nil {
				t.Fatalf("RemoveNode(%d): %v", n, err)
			}
		}
		return g
	}
	ref := build(0)
	wantBC, wantBFS := ref.EdgeBetweenness(), ref.BFSFrom(0)
	for run := 1; run <= 20; run++ {
		g := build(int64(run))
		if !maps.Equal(g.BFSFrom(0), wantBFS) {
			t.Fatalf("run %d: BFSFrom differs", run)
		}
		bc := g.EdgeBetweenness()
		if len(bc) != len(wantBC) {
			t.Fatalf("run %d: %d betweenness entries, want %d", run, len(bc), len(wantBC))
		}
		for e, v := range bc {
			if math.Float64bits(v) != math.Float64bits(wantBC[e]) {
				t.Fatalf("run %d: betweenness%v = %x, want %x (not bit-identical)",
					run, e, math.Float64bits(v), math.Float64bits(wantBC[e]))
			}
		}
	}
}
