package xheal

import (
	"io"
	"math/rand"
	"sync"

	"github.com/xheal/xheal/internal/baseline"
	"github.com/xheal/xheal/internal/core"
	"github.com/xheal/xheal/internal/dist"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/metrics"
	"github.com/xheal/xheal/internal/routing"
	"github.com/xheal/xheal/internal/workload"
)

// Re-exported fundamental types. Aliases keep the public API thin while the
// implementation lives in internal packages.
type (
	// NodeID identifies a node (a processor in the paper's model).
	NodeID = graph.NodeID
	// Edge is an undirected edge in canonical (U ≤ V) form.
	Edge = graph.Edge
	// Graph is a dynamic undirected simple graph.
	Graph = graph.Graph
	// Snapshot is one measurement of a healed graph against its baseline G′.
	Snapshot = metrics.Snapshot
	// Stats counts the healing work a Network has performed.
	Stats = core.Stats
	// Healer is a pluggable self-healing algorithm (Xheal or a baseline).
	Healer = baseline.Healer
	// Distributed is the goroutine-per-node protocol engine implementing
	// the paper's §5 with round and message accounting.
	Distributed = dist.Engine
	// DeletionCost is one distributed repair's measured cost (Theorem 5).
	DeletionCost = dist.DeletionCost
)

// NewGraph returns an empty graph to build an initial topology with.
func NewGraph() *Graph { return graph.New() }

// Network is a self-healing network driven by adversarial events: the
// sequential reference implementation of Xheal (paper Algorithm 3.1).
type Network struct {
	state *core.State

	// measureRng backs Measure/MeasureFast; reseeded per call so repeated
	// measurements stay deterministic without allocating a generator each
	// time (MeasureFast sits in tight loops).
	measureMu  sync.Mutex
	measureRng *rand.Rand
}

// NewNetwork builds a self-healing network over a copy of the initial
// topology. The initial edges are colored black, per the paper.
func NewNetwork(initial *Graph, opts ...Option) (*Network, error) {
	cfg := buildConfig(opts)
	state, err := core.NewState(core.Config{Kappa: cfg.kappa, Seed: cfg.seed}, initial)
	if err != nil {
		return nil, err
	}
	return &Network{state: state, measureRng: rand.New(rand.NewSource(1))}, nil
}

// Insert applies an adversarial insertion: node u joins with black edges to
// the given existing nodes. No healing is required (paper §3).
func (n *Network) Insert(u NodeID, nbrs []NodeID) error {
	return n.state.InsertNode(u, nbrs)
}

// Delete applies an adversarial deletion of v and heals the wound with
// expander clouds (paper Algorithm 3.1, Cases 1, 2.1, 2.2).
func (n *Network) Delete(v NodeID) error {
	return n.state.DeleteNode(v)
}

// Graph returns the healed graph G. Live view — do not modify.
func (n *Network) Graph() *Graph { return n.state.Graph() }

// Baseline returns G′: original nodes plus insertions, with deletions
// ignored (deleted nodes included). Live view — do not modify.
func (n *Network) Baseline() *Graph { return n.state.Baseline() }

// Kappa returns the expander degree parameter κ.
func (n *Network) Kappa() int { return n.state.Kappa() }

// Stats returns the healing-work counters.
func (n *Network) Stats() Stats { return n.state.Stats() }

// Alive reports whether v is present in the healed graph.
func (n *Network) Alive(v NodeID) bool { return n.state.Alive(v) }

// DegreeBound returns the paper's Theorem 2.1 bound κ·deg_G′(x) + 2κ for x.
func (n *Network) DegreeBound(x NodeID) int { return n.state.DegreeBound(x) }

// CheckInvariants verifies the full internal consistency of the network
// (cloud structure, edge claims, the degree bound). It returns nil when all
// of the paper's structural invariants hold.
func (n *Network) CheckInvariants() error { return n.state.CheckInvariants() }

// Measure computes the paper's metrics for the current healed graph against
// G′: degree ratio, stretch, expansion/conductance (exact on small graphs),
// spectral gaps, and sweep-cut witness bounds.
func (n *Network) Measure() Snapshot {
	n.measureMu.Lock()
	defer n.measureMu.Unlock()
	n.measureRng.Seed(1)
	return metrics.Measure(n.state.Graph(), n.state.Baseline(), metrics.Config{
		SweepCuts: true,
		Rng:       n.measureRng,
	})
}

// MeasureFast is Measure without the spectral computations and with sampled
// stretch, for use in tight loops.
func (n *Network) MeasureFast() Snapshot {
	n.measureMu.Lock()
	defer n.measureMu.Unlock()
	n.measureRng.Seed(1)
	return metrics.Measure(n.state.Graph(), n.state.Baseline(), metrics.Config{
		SkipSpectral:   true,
		StretchSources: 4,
		Rng:            n.measureRng,
	})
}

// NewDistributed builds the distributed protocol engine over a copy of the
// initial topology: one goroutine per node, synchronous rounds, and message
// accounting per the paper's §5. Close it when done.
func NewDistributed(initial *Graph, opts ...Option) (*Distributed, error) {
	cfg := buildConfig(opts)
	return dist.NewEngine(dist.Config{Kappa: cfg.kappa, Seed: cfg.seed}, initial)
}

// Healer names for NewHealer, re-exported from the baseline suite.
const (
	HealerXheal          = baseline.NameXheal
	HealerForgivingTree  = baseline.NameForgivingTree
	HealerForgivingGraph = baseline.NameForgivingGraph
	HealerCycle          = baseline.NameCycle
	HealerStar           = baseline.NameStar
	HealerClique         = baseline.NameClique
	HealerNone           = baseline.NameNone
)

// HealerNames returns every available healer name, Xheal first.
func HealerNames() []string { return baseline.Names() }

// NewHealer constructs the named healing algorithm over a copy of g0 —
// Xheal itself or one of the comparison baselines (Forgiving-Tree-style,
// Forgiving-Graph-style, cycle, star, clique, none).
func NewHealer(name string, g0 *Graph, opts ...Option) (Healer, error) {
	cfg := buildConfig(opts)
	return baseline.New(name, g0, cfg.kappaOrDefault(), cfg.seed)
}

// Compare runs the same deletion against every named healer on copies of g0
// and returns each healed snapshot, keyed by healer name. It is the
// programmatic form of the paper's star-attack comparison.
func Compare(g0 *Graph, delete NodeID, names []string, opts ...Option) (map[string]Snapshot, error) {
	out := make(map[string]Snapshot, len(names))
	for _, name := range names {
		h, err := NewHealer(name, g0, opts...)
		if err != nil {
			return nil, err
		}
		if err := h.Delete(delete); err != nil {
			return nil, err
		}
		out[name] = metrics.Measure(h.Graph(), g0, metrics.Config{
			SweepCuts: true,
			Rng:       rand.New(rand.NewSource(1)),
		})
	}
	return out, nil
}

// Initial-topology generators re-exported for building scenarios.

// StarGraph returns K_{1,leaves}: hub node 0 plus the given leaves.
func StarGraph(leaves int) (*Graph, error) { return workload.Star(leaves) }

// PathGraph returns the path on n nodes.
func PathGraph(n int) (*Graph, error) { return workload.Path(n) }

// CycleGraph returns the cycle on n nodes.
func CycleGraph(n int) (*Graph, error) { return workload.Cycle(n) }

// CompleteGraph returns K_n.
func CompleteGraph(n int) (*Graph, error) { return workload.Complete(n) }

// GridGraph returns the rows×cols grid.
func GridGraph(rows, cols int) (*Graph, error) { return workload.Grid(rows, cols) }

// HypercubeGraph returns the dim-dimensional hypercube.
func HypercubeGraph(dim int) (*Graph, error) { return workload.Hypercube(dim) }

// RandomRegularGraph returns a connected random 2d-regular graph (a random
// H-graph — the paper's own expander construction).
func RandomRegularGraph(n, halfDegree int, seed int64) (*Graph, error) {
	return workload.RandomRegular(n, halfDegree, rand.New(rand.NewSource(seed)))
}

// ErdosRenyiGraph returns a connected G(n, p) sample.
func ErdosRenyiGraph(n int, p float64, seed int64) (*Graph, error) {
	return workload.ErdosRenyi(n, p, rand.New(rand.NewSource(seed)))
}

// PreferentialAttachmentGraph returns a power-law graph grown by
// degree-proportional attachment with m edges per arrival.
func PreferentialAttachmentGraph(n, m int, seed int64) (*Graph, error) {
	return workload.PreferentialAttachment(n, m, rand.New(rand.NewSource(seed)))
}

// Batch support: the paper notes the algorithm "can be extended to handle
// multiple insertions/deletions"; ApplyBatch is that extension.

// Batch is one multi-event timestep: all insertions are applied first (they
// commute with healing, per the paper's Lemma 2 argument), then each
// deletion is healed in turn.
type Batch = core.Batch

// BatchInsertion is one node joining within a Batch.
type BatchInsertion = core.BatchInsertion

// ApplyBatch applies a multi-event timestep atomically: the batch is
// validated up front and rejected wholesale on conflict.
func (n *Network) ApplyBatch(b Batch) error { return n.state.ApplyBatch(b) }

// WriteDOT renders the healed graph in Graphviz DOT form with the paper's
// color convention: black original/inserted edges, red primary-cloud edges,
// orange secondary-cloud edges, bridge nodes as boxes.
func (n *Network) WriteDOT(w io.Writer) error { return n.state.WriteDOT(w) }

// Route maintenance: the paper's conclusion asks "Can we efficiently find
// new routes to replace the routes damaged by the deletions?" — the routing
// types below implement that extension with localized route splicing.

type (
	// RouteTable maintains pinned routes over a healed graph and repairs
	// them locally after deletions.
	RouteTable = routing.Table
	// Route is one pinned path.
	Route = routing.Route
	// RouteStats aggregates repair locality counters.
	RouteStats = routing.RepairStats
)

// NewRouteTable returns an empty route table. Pin routes against
// Network.Graph(), and call its OnDelete after every Network.Delete to
// repair damage through the healed topology.
func NewRouteTable() *RouteTable { return routing.NewTable() }
