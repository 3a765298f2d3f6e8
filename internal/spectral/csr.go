package spectral

import (
	"math"
	"slices"

	"github.com/xheal/xheal/internal/graph"
)

// CSR is a compressed-sparse-row snapshot of a graph's adjacency: the
// matrix-free backend for the large-graph eigensolver paths, also reused by
// the metrics package for walk evolution. Building it costs O(n + m) time
// and memory — compare the O(n²) dense Sym the Jacobi path needs — and one
// Laplacian matvec then costs O(n + m).
//
// The snapshot is immutable and does not track the graph; rebuild after the
// graph mutates.
type CSR struct {
	Nodes  []graph.NodeID // ascending; row i is Nodes[i]
	RowPtr []int32        // len n+1; row i's columns are Cols[RowPtr[i]:RowPtr[i+1]]
	Cols   []int32        // neighbor row indices, ascending within each row
	Deg    []float64      // Deg[i] = len(row i)
}

// Row returns row i's neighbor indices.
func (a *CSR) Row(i int) []int32 { return a.Cols[a.RowPtr[i]:a.RowPtr[i+1]] }

// NewCSR snapshots g's adjacency in node-ascending order. Rows keep the
// graph's ascending neighbor order so float accumulation order — and
// therefore every eigenvalue bit — is reproducible run to run.
//
// It is the two halves of AdjacencyCopy run back to back: a flat copy of
// the graph, then the build from the copy.
func NewCSR(g *graph.Graph) *CSR {
	var c AdjacencyCopy
	c.Fill(g)
	return c.CSR()
}

// AdjacencyCopy is a flat copy of a graph's adjacency: every node's ID,
// degree and ascending neighbor list, in the graph's own iteration order.
// Fill is the half of NewCSR that reads the graph; CSR is the half that
// sorts, indexes and builds, and never looks at the graph again. A caller
// that must not let the graph change under a read (internal/server holds
// its apply lock) runs only Fill under the lock and builds after it.
//
// Fill reuses the copy's buffers, so once they have grown to the graph's
// size it allocates nothing. The zero value is an empty copy.
type AdjacencyCopy struct {
	ids  []graph.NodeID
	deg  []int32
	nbrs []graph.NodeID // the neighbor lists of ids, concatenated
}

// Fill replaces the copy's contents with g's adjacency: one pass over the
// nodes, with no sort and no map.
func (c *AdjacencyCopy) Fill(g *graph.Graph) {
	c.ids = slices.Grow(c.ids[:0], g.NumNodes())
	c.deg = slices.Grow(c.deg[:0], g.NumNodes())
	c.nbrs = slices.Grow(c.nbrs[:0], 2*g.NumEdges())
	g.ForEachNode(func(n graph.NodeID) {
		nbrs := g.Neighbors(n)
		c.ids = append(c.ids, n)
		c.deg = append(c.deg, int32(len(nbrs)))
		c.nbrs = append(c.nbrs, nbrs...)
	})
}

// CSR builds the snapshot of the graph as it was at the last Fill. Every
// array of the result is freshly allocated, so a CSR stays valid however
// the copy is refilled afterwards.
func (c *AdjacencyCopy) CSR() *CSR {
	n := len(c.ids)
	nodes := make([]graph.NodeID, n)
	copy(nodes, c.ids)
	slices.Sort(nodes)
	idx := make(map[graph.NodeID]int32, n)
	for i, node := range nodes {
		idx[node] = int32(i)
	}
	a := &CSR{
		Nodes:  nodes,
		RowPtr: make([]int32, n+1),
		Deg:    make([]float64, n),
	}
	// rows[p] is the row of the copy's p-th node; RowPtr first holds each
	// row's degree one slot to the right, then its prefix sum.
	rows := make([]int32, n)
	for p, node := range c.ids {
		rows[p] = idx[node]
		a.RowPtr[rows[p]+1] = c.deg[p]
	}
	for i := range n {
		a.RowPtr[i+1] += a.RowPtr[i]
		a.Deg[i] = float64(a.RowPtr[i+1] - a.RowPtr[i])
	}
	// Each copied list is ascending by ID and so by row: translate it in
	// place into its row.
	a.Cols = make([]int32, a.RowPtr[n])
	off := int32(0)
	for p, d := range c.deg {
		row := a.Cols[a.RowPtr[rows[p]]:]
		for k, w := range c.nbrs[off : off+d] {
			row[k] = idx[w]
		}
		off += d
	}
	return a
}

// MulLaplacian computes dst = L·x for the combinatorial Laplacian
// L = D − A without materializing any matrix.
func (a *CSR) MulLaplacian(dst, x []float64) {
	for i := range dst {
		sum := 0.0
		for _, j := range a.Row(i) {
			sum += x[j]
		}
		dst[i] = a.Deg[i]*x[i] - sum
	}
}

// normCSR extends CSR with the D^{−1/2} scaling of the symmetric
// normalized Laplacian ℒ = I − D^{−1/2} A D^{−1/2}.
type normCSR struct {
	*CSR
	invSqrt []float64 // 1/√deg, 0 for isolated nodes
}

func newNormCSR(g *graph.Graph) *normCSR {
	a := NewCSR(g)
	inv := make([]float64, len(a.Deg))
	for i, d := range a.Deg {
		if d > 0 {
			inv[i] = 1 / math.Sqrt(d)
		}
	}
	return &normCSR{CSR: a, invSqrt: inv}
}

// MulNormalized computes dst = ℒ·x. Isolated nodes keep the zero-row
// convention of NormalizedLaplacian (their entry of dst is 0).
func (a *normCSR) MulNormalized(dst, x []float64) {
	for i := range dst {
		if a.Deg[i] == 0 {
			dst[i] = 0
			continue
		}
		sum := 0.0
		for _, j := range a.Row(i) {
			sum += a.invSqrt[j] * x[j]
		}
		dst[i] = x[i] - a.invSqrt[i]*sum
	}
}
