package core

import (
	"slices"

	"github.com/xheal/xheal/internal/graph"
)

// Batch-scoped delta export: the exact net structural change one applied
// batch made to the healed graph G and the baseline G′, in canonical order.
// The serving daemon feeds these to the incremental metrics tracker
// (internal/metrics/live) so health polls never rescan the graph.
//
// The accumulator nets adds against removes (an edge the tick wires and then
// drops contributes nothing), mirroring the per-repair deltaLog, but it also
// records the wound edges that die with each deleted node and the node set
// changes — DeleteNodeDelta excludes those by contract, a tracker needs them.

// TickDelta is the net structural change of one applied batch.
//
// Replaying it against the pre-batch graphs reproduces the post-batch
// graphs exactly: add NodesAdded to both G and G′, apply EdgesAdded/
// EdgesRemoved to G, add BaselineEdges to G′, then drop NodesRemoved from G
// (by then they have no incident edges left). All slices are sorted; node
// IDs never repeat across Added and Removed unless the same node was
// inserted and deleted within the batch, in which case it appears in both
// and its edges net to nothing.
type TickDelta struct {
	NodesAdded   []graph.NodeID
	NodesRemoved []graph.NodeID
	EdgesAdded   []graph.Edge // net physical additions to G
	EdgesRemoved []graph.Edge // net physical removals from G
	// BaselineEdges are the edges added to G′ (insertion attachments).
	// G′ never loses edges, so these are un-netted.
	BaselineEdges []graph.Edge
}

// Empty reports whether the delta carries no change.
func (d TickDelta) Empty() bool {
	return len(d.NodesAdded) == 0 && len(d.NodesRemoved) == 0 &&
		len(d.EdgesAdded) == 0 && len(d.EdgesRemoved) == 0 &&
		len(d.BaselineEdges) == 0
}

// tickAcc accumulates one batch's net changes while a delta capture is
// active (see BeginTickDelta).
type tickAcc struct {
	edges        map[graph.Edge]int8 // net G changes, add/remove cancelling
	nodesAdded   []graph.NodeID
	nodesRemoved []graph.NodeID
	baseEdges    []graph.Edge
}

// netDelta nets one physical edge change into m: an add cancels a pending
// remove of the same edge and vice versa.
func netDelta(m map[graph.Edge]int8, e graph.Edge, kind int8) {
	if m[e] == -kind {
		delete(m, e)
		return
	}
	m[e] = kind
}

// BeginTickDelta starts capturing the net structural changes of subsequent
// mutations; TakeTickDelta ends the capture and returns them. The pair
// brackets exactly one batch application — ApplyBatchDelta does this for
// the core engine, the distributed engine brackets its own ApplyBatch.
func (s *State) BeginTickDelta() {
	if s.tickSpare != nil {
		// Reuse last tick's accumulator: its map and struct survive; the
		// slices were handed out with the previous delta and restart nil.
		acc := s.tickSpare
		s.tickSpare = nil
		clear(acc.edges)
		acc.nodesAdded, acc.nodesRemoved, acc.baseEdges = nil, nil, nil
		s.tick = acc
		return
	}
	s.tick = &tickAcc{edges: make(map[graph.Edge]int8)}
}

// TakeTickDelta ends the capture started by BeginTickDelta and returns the
// accumulated delta with all slices in canonical sorted order.
func (s *State) TakeTickDelta() TickDelta {
	acc := s.tick
	s.tick = nil
	if acc == nil {
		return TickDelta{}
	}
	s.tickSpare = acc
	d := TickDelta{
		NodesAdded:    acc.nodesAdded,
		NodesRemoved:  acc.nodesRemoved,
		BaselineEdges: acc.baseEdges,
	}
	for e, kind := range acc.edges {
		if kind == deltaAdded {
			d.EdgesAdded = append(d.EdgesAdded, e)
		} else {
			d.EdgesRemoved = append(d.EdgesRemoved, e)
		}
	}
	slices.Sort(d.NodesAdded)
	slices.Sort(d.NodesRemoved)
	sortEdges(d.EdgesAdded)
	sortEdges(d.EdgesRemoved)
	sortEdges(d.BaselineEdges)
	return d
}

// noteNodeInserted records a successful insertion into the active capture.
func (s *State) noteNodeInserted(u graph.NodeID, nbrs []graph.NodeID) {
	if s.tick == nil {
		return
	}
	s.tick.nodesAdded = append(s.tick.nodesAdded, u)
	for _, w := range nbrs {
		e := graph.NewEdge(u, w)
		netDelta(s.tick.edges, e, deltaAdded)
		s.tick.baseEdges = append(s.tick.baseEdges, e)
	}
}

// noteNodeRemoved records a deletion and its wound edges into the active
// capture. DeleteNodeDelta's per-repair log excludes wound edges by
// contract; the batch capture must include them — they change degrees.
func (s *State) noteNodeRemoved(v graph.NodeID, wound []graph.NodeID) {
	if s.tick == nil {
		return
	}
	s.tick.nodesRemoved = append(s.tick.nodesRemoved, v)
	for _, w := range wound {
		netDelta(s.tick.edges, graph.NewEdge(v, w), deltaRemoved)
	}
}

// ApplyBatchDelta applies one batch and returns the net structural change it
// made. The failure contract is ApplyBatch's; on error the returned delta is
// empty. The worker count is ignored: repairs are applied serially (the
// parameter stays until ROADMAP item 4(i) frees server.DeltaBatcher).
func (s *State) ApplyBatchDelta(b Batch, _ int) (TickDelta, error) {
	s.BeginTickDelta()
	err := s.ApplyBatch(b)
	d := s.TakeTickDelta()
	if err != nil {
		return TickDelta{}, err
	}
	return d, nil
}
