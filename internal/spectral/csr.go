package spectral

import (
	"math"

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
func NewCSR(g *graph.Graph) *CSR {
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
