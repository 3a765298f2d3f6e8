package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"github.com/xheal/xheal/internal/core"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/wire"
)

// rankSeedSalt derives the engine's rank stream from the config seed (kept
// distinct from the healing stream the inner reference state consumes).
const rankSeedSalt = 0x5f3759df

// ErrBadSnapshot wraps all engine-snapshot decode/restore failures.
var ErrBadSnapshot = errors.New("dist: malformed snapshot")

// NodeRank is one alive node's private leader-election rank.
type NodeRank struct {
	Node graph.NodeID
	Rank int64
}

// Snapshot is the complete serializable state of a distributed engine: the
// inner reference state, every alive node's election rank, the position of
// the rank stream (future spawns draw from it), and the cost ledger. The
// nodes' local views are not serialized — between repairs every view equals
// the healed graph's neighbor sets exactly (ValidateLocalViews), so restore
// derives them. All collections are sorted: equal states produce
// byte-identical bytes.
type Snapshot struct {
	Version     int
	Core        *core.Snapshot
	Ranks       []NodeRank
	RngDraws    uint64
	Costs       []DeletionCost
	Totals      Totals
	BlackDegSum int
}

// Snapshot captures the complete current state. The engine must be quiescent
// (between events; the protocol runs to completion inside each mutating
// call, so any moment outside Insert/Delete/ApplyBatch qualifies).
func (e *Engine) Snapshot() *Snapshot {
	snap := &Snapshot{
		Version:     core.SnapshotVersion,
		Core:        e.st.Snapshot(),
		Ranks:       make([]NodeRank, 0, len(e.nodes)),
		RngDraws:    e.src.Draws(),
		Costs:       append([]DeletionCost(nil), e.costs...),
		Totals:      e.totals,
		BlackDegSum: e.blackDegSum,
	}
	for id, nd := range e.nodes {
		snap.Ranks = append(snap.Ranks, NodeRank{Node: id, Rank: nd.rank})
	}
	slices.SortFunc(snap.Ranks, func(a, b NodeRank) int {
		switch {
		case a.Node < b.Node:
			return -1
		case a.Node > b.Node:
			return 1
		}
		return 0
	})
	return snap
}

// RestoreEngine rebuilds an engine from a snapshot: the reference state is
// restored exactly, every alive node gets its protocol node back with its
// recorded rank, and each node's local view is seeded from the healed
// graph's neighbor sets (the protocol's own invariant between repairs). The
// restored engine's future behavior is bit-identical to the snapshotted
// original's.
func RestoreEngine(snap *Snapshot) (*Engine, error) {
	if snap == nil || snap.Core == nil {
		return nil, fmt.Errorf("%w: nil", ErrBadSnapshot)
	}
	if snap.Version != core.SnapshotVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrBadSnapshot, snap.Version, core.SnapshotVersion)
	}
	st, err := core.RestoreState(snap.Core)
	if err != nil {
		return nil, err
	}
	src := core.NewCountedSource(snap.Core.Seed ^ rankSeedSalt)
	src.Skip(snap.RngDraws)
	e := &Engine{
		st:          st,
		src:         src,
		rng:         rand.New(src),
		nodes:       make(map[graph.NodeID]*node, len(snap.Ranks)),
		costs:       append([]DeletionCost(nil), snap.Costs...),
		totals:      snap.Totals,
		blackDegSum: snap.BlackDegSum,
	}
	g := st.Graph()
	alive := g.Nodes()
	if len(snap.Ranks) != len(alive) {
		return nil, fmt.Errorf("%w: %d ranks for %d alive nodes", ErrBadSnapshot, len(snap.Ranks), len(alive))
	}
	for _, nr := range snap.Ranks {
		if !g.HasNode(nr.Node) {
			return nil, fmt.Errorf("%w: rank for non-alive node %d", ErrBadSnapshot, nr.Node)
		}
		if _, dup := e.nodes[nr.Node]; dup {
			return nil, fmt.Errorf("%w: duplicate rank for node %d", ErrBadSnapshot, nr.Node)
		}
		e.nodes[nr.Node] = &node{id: nr.Node, rank: nr.Rank, view: slices.Clone(g.Neighbors(nr.Node))}
	}
	return e, nil
}

// SnapshotState serializes the complete engine state in deterministic binary
// form (internal/wire; the inner core snapshot is embedded as
// core.Snapshot.Encode writes it) — the engine-agnostic bytes a checkpoint
// store persists (see internal/server's Snapshotter).
func (e *Engine) SnapshotState() ([]byte, error) {
	if e.closed {
		return nil, ErrClosed
	}
	var w wire.Writer
	e.Snapshot().encode(&w)
	return w.Bytes(), nil
}

// LoadSnapshot decodes an engine snapshot serialized by SnapshotState.
func LoadSnapshot(data []byte) (*Snapshot, error) {
	r := wire.NewReader(data)
	snap := decodeSnapshot(r)
	if r.Err() == nil && (snap.Version != core.SnapshotVersion || snap.Core.Version != core.SnapshotVersion) {
		return nil, fmt.Errorf("%w: version %d/%d (want %d)", ErrBadSnapshot,
			snap.Version, snap.Core.Version, core.SnapshotVersion)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return snap, nil
}

func (snap *Snapshot) encode(w *wire.Writer) {
	w.Uvarint(uint64(snap.Version))
	snap.Core.Encode(w)
	w.Uvarint(uint64(len(snap.Ranks)))
	prev := graph.NodeID(0)
	for _, nr := range snap.Ranks { // ascending by node
		w.Uvarint(uint64(nr.Node - prev))
		prev = nr.Node
		w.Int(nr.Rank)
	}
	w.Uvarint(snap.RngDraws)
	w.Uvarint(uint64(len(snap.Costs)))
	for _, c := range snap.Costs {
		w.Uvarint(uint64(c.Node))
		for _, v := range [...]int{c.BlackDegree, c.Wound, c.Rounds, c.Messages} {
			w.Int(int64(v))
		}
	}
	for _, v := range [...]int{snap.Totals.Deletions, snap.Totals.Rounds, snap.Totals.Messages, snap.BlackDegSum} {
		w.Int(int64(v))
	}
}

// decodeSnapshot reads what encode wrote; failures stay in r. A snapshot of
// another version, outer or inner, is returned as far as it was read.
func decodeSnapshot(r *wire.Reader) *Snapshot {
	snap := &Snapshot{Version: int(r.Uvarint()), Core: &core.Snapshot{}}
	if snap.Version != core.SnapshotVersion {
		return snap
	}
	snap.Core = core.DecodeSnapshot(r)
	if snap.Core.Version != core.SnapshotVersion {
		return snap
	}
	snap.Ranks = make([]NodeRank, r.Count(2))
	prev := graph.NodeID(0)
	for i := range snap.Ranks {
		prev += graph.NodeID(r.Uvarint())
		snap.Ranks[i] = NodeRank{Node: prev, Rank: r.Int()}
	}
	snap.RngDraws = r.Uvarint()
	snap.Costs = make([]DeletionCost, r.Count(5))
	for i := range snap.Costs {
		snap.Costs[i] = DeletionCost{
			Node:        graph.NodeID(r.Uvarint()),
			BlackDegree: int(r.Int()), Wound: int(r.Int()),
			Rounds: int(r.Int()), Messages: int(r.Int()),
		}
	}
	snap.Totals = Totals{Deletions: int(r.Int()), Rounds: int(r.Int()), Messages: int(r.Int())}
	snap.BlackDegSum = int(r.Int())
	return snap
}

// Stats returns the healing-work counters of the inner reference state
// (facade parity with core.State.Stats, used by recovery to reseed serving
// counters).
func (e *Engine) Stats() core.Stats { return e.st.Stats() }
