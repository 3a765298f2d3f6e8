package spectral

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/xheal/xheal/internal/graph"
)

func randomTestGraph(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	for i := 0; i < n; i++ {
		g.EnsureNode(graph.NodeID(i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.EnsureEdge(graph.NodeID(i), graph.NodeID(j))
			}
		}
	}
	return g
}

// The matrix-free CSR operators must agree with the dense matrices they
// replace: same operator, different storage.
func TestCSRMatchesDenseLaplacian(t *testing.T) {
	g := randomTestGraph(40, 0.15, 7)
	rng := rand.New(rand.NewSource(8))
	n := g.NumNodes()
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}

	dense, _ := Laplacian(g)
	want := make([]float64, n)
	if err := dense.MulVec(want, x); err != nil {
		t.Fatalf("dense MulVec: %v", err)
	}
	op := NewCSR(g)
	got := make([]float64, n)
	op.MulLaplacian(got, x)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("Laplacian matvec row %d: csr=%g dense=%g", i, got[i], want[i])
		}
	}
}

func TestCSRMatchesDenseNormalizedLaplacian(t *testing.T) {
	g := randomTestGraph(40, 0.15, 9)
	g.EnsureNode(1000) // isolated node: zero row in both representations
	rng := rand.New(rand.NewSource(10))
	n := g.NumNodes()
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}

	dense, _ := NormalizedLaplacian(g)
	want := make([]float64, n)
	if err := dense.MulVec(want, x); err != nil {
		t.Fatalf("dense MulVec: %v", err)
	}
	op := newNormCSR(g)
	got := make([]float64, n)
	op.MulNormalized(got, x)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("normalized matvec row %d: csr=%g dense=%g", i, got[i], want[i])
		}
	}
}

// The large-graph (Lanczos / power-iteration) paths must keep returning the
// same spectral quantities they did with the dense backend. A circulant
// graph over the cutoff has a closed-form λ₂ to compare against.
func TestMatrixFreeLambda2OnCirculant(t *testing.T) {
	n := jacobiCutoff + 30
	g := graph.New()
	for i := 0; i < n; i++ {
		g.EnsureNode(graph.NodeID(i))
	}
	for i := 0; i < n; i++ {
		g.EnsureEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
		g.EnsureEdge(graph.NodeID(i), graph.NodeID((i+2)%n))
	}
	// Circulant C_n(1,2): λ₂ = (2−2cos θ) + (2−2cos 2θ), θ = 2π/n.
	theta := 2 * math.Pi / float64(n)
	want := (2 - 2*math.Cos(theta)) + (2 - 2*math.Cos(2*theta))
	got := AlgebraicConnectivity(g, rand.New(rand.NewSource(11)))
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("lambda2 = %g, want %g", got, want)
	}
}

// refCSR is NewCSR as it was before it split into AdjacencyCopy's two
// halves — the graph's sorted Nodes view, a map index, and one pass over
// Neighbors — kept as the reference model the split is checked against.
func refCSR(g *graph.Graph) *CSR {
	nodes := g.Nodes()
	n := len(nodes)
	idx := make(map[graph.NodeID]int32, n)
	for i, node := range nodes {
		idx[node] = int32(i)
	}
	a := &CSR{
		Nodes:  nodes,
		RowPtr: make([]int32, n+1),
		Cols:   make([]int32, 0, 2*g.NumEdges()),
		Deg:    make([]float64, n),
	}
	for i, node := range nodes {
		nbrs := g.Neighbors(node)
		for _, w := range nbrs {
			a.Cols = append(a.Cols, idx[w])
		}
		a.RowPtr[i+1] = int32(len(a.Cols))
		a.Deg[i] = float64(len(nbrs))
	}
	return a
}

func requireSameCSR(t *testing.T, what string, got, want *CSR) {
	t.Helper()
	switch {
	case !slices.Equal(got.Nodes, want.Nodes):
		t.Fatalf("%s: Nodes = %v, want %v", what, got.Nodes, want.Nodes)
	case !slices.Equal(got.RowPtr, want.RowPtr):
		t.Fatalf("%s: RowPtr = %v, want %v", what, got.RowPtr, want.RowPtr)
	case !slices.Equal(got.Cols, want.Cols):
		t.Fatalf("%s: Cols = %v, want %v", what, got.Cols, want.Cols)
	case !slices.Equal(got.Deg, want.Deg):
		t.Fatalf("%s: Deg = %v, want %v", what, got.Deg, want.Deg)
	}
}

// sparseIDGraph draws n node IDs from far-apart ranges (small, around 2²⁰
// like inserted nodes, and anywhere in the non-negative int64 range), leaves
// some nodes isolated, and wires random edges among the rest.
func sparseIDGraph(rng *rand.Rand, n int, p float64) *graph.Graph {
	g := graph.New()
	ids := make([]graph.NodeID, 0, n)
	for len(ids) < n {
		var id graph.NodeID
		switch rng.Intn(3) {
		case 0:
			id = graph.NodeID(rng.Intn(4 * n))
		case 1:
			id = graph.NodeID(1<<20 + rng.Intn(1<<16))
		default:
			id = graph.NodeID(rng.Int63())
		}
		if g.EnsureNode(id) {
			ids = append(ids, id)
		}
	}
	for i, u := range ids {
		for _, v := range ids[i+1:] {
			if rng.Float64() < p {
				g.EnsureEdge(u, v)
			}
		}
	}
	return g
}

// TestAdjacencyCopyMatchesReference checks that the copy followed by the
// build equals the reference model field by field — on graphs with sparse,
// far-apart IDs, isolated nodes, the empty graph and graphs after removals
// — and that the graph changing between the two halves leaves the build
// what it was at the copy. One AdjacencyCopy is refilled throughout, so
// buffers reused across graphs that grow and shrink are covered too.
func TestAdjacencyCopyMatchesReference(t *testing.T) {
	var c AdjacencyCopy
	c.Fill(graph.New())
	requireSameCSR(t, "empty graph", c.CSR(), refCSR(graph.New()))

	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 60; trial++ {
		g := sparseIDGraph(rng, 1+rng.Intn(80), 0.02+0.2*rng.Float64())
		if trial%3 == 0 {
			nodes := slices.Clone(g.Nodes())
			for _, v := range nodes {
				if rng.Intn(4) == 0 {
					if _, err := g.RemoveNode(v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		c.Fill(g)
		want := refCSR(g)
		wantCopy := &CSR{
			Nodes:  slices.Clone(want.Nodes),
			RowPtr: slices.Clone(want.RowPtr),
			Cols:   slices.Clone(want.Cols),
			Deg:    slices.Clone(want.Deg),
		}
		requireSameCSR(t, "NewCSR", NewCSR(g), want)

		// Mutate between the copy and the build: remove a node, add one
		// wired to survivors, toggle an edge.
		if nodes := slices.Clone(g.Nodes()); len(nodes) > 0 {
			if _, err := g.RemoveNode(nodes[rng.Intn(len(nodes))]); err != nil {
				t.Fatal(err)
			}
		}
		fresh := graph.NodeID(-1 - trial)
		g.EnsureNode(fresh)
		for _, v := range g.Nodes() {
			if v != fresh && rng.Intn(3) == 0 {
				g.EnsureEdge(fresh, v)
			}
		}
		built := c.CSR()
		requireSameCSR(t, "build after the graph changed", built, wantCopy)

		// Refilling the copy and building again must not reach into a CSR
		// already built: callers keep CSR.Nodes across refreshes.
		c.Fill(g)
		requireSameCSR(t, "build after refill", c.CSR(), refCSR(g))
		requireSameCSR(t, "earlier build after refill and rebuild", built, wantCopy)
	}
}
