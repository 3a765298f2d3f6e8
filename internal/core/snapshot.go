package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"github.com/xheal/xheal/internal/expander"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/wire"
)

// This file is the durability boundary of the sequential engine: Snapshot
// serializes the complete State — graphs, claims, clouds, membership maps,
// counters, and the position of the private randomness stream — and
// RestoreState rebuilds a State that is behaviorally indistinguishable from
// the original: every future event produces bit-identical healing decisions,
// because the H-graph wirings are restored exactly and the rng resumes from
// the recorded stream position. Snapshots of a restored state are
// byte-identical to snapshots of an uncrashed run at the same point, which
// is how crash-recovery identity is asserted end to end.
//
// The wire form (SnapshotState / LoadSnapshot) is binary, version 2, and the
// only one: a sequence of uvarints in the field order of Snapshot, with
// ascending ID lists and sorted edge lists delta-coded (internal/wire), so a
// 10⁵-node state is a few MiB where its JSON predecessor was 23. The first
// value is the version; a version-1 (JSON) snapshot does not decode. Every
// length prefix is checked against the bytes that remain before anything is
// allocated for it (FuzzLoadSnapshot), and the decoded Snapshot is validated
// by RestoreState exactly as a hand-built one is.

// SnapshotVersion identifies the engine snapshot schema.
const SnapshotVersion = 2

// ErrBadSnapshot wraps all engine-snapshot decode/restore failures.
var ErrBadSnapshot = errors.New("core: malformed snapshot")

// GraphSnapshot is a graph as flat node and edge lists, both in canonical
// ascending order.
type GraphSnapshot struct {
	Nodes []graph.NodeID
	Edges []graph.Edge
}

// TakeGraphSnapshot captures g.
func TakeGraphSnapshot(g *graph.Graph) GraphSnapshot {
	return GraphSnapshot{
		Nodes: append([]graph.NodeID(nil), g.Nodes()...),
		Edges: append([]graph.Edge(nil), g.Edges()...),
	}
}

// Restore rebuilds the graph.
func (gs GraphSnapshot) Restore() *graph.Graph {
	g := graph.New()
	for _, n := range gs.Nodes {
		g.EnsureNode(n)
	}
	for _, e := range gs.Edges {
		g.EnsureEdge(e.U, e.V)
	}
	return g
}

// ClaimSnapshot is the ownership record of one physical edge.
type ClaimSnapshot struct {
	Edge graph.Edge
	// Black marks an original/adversary-inserted edge; Colors lists the
	// claiming clouds otherwise.
	Black  bool
	Colors []ColorID
}

// CloudSnapshot is one expander cloud. The physical edge set is not
// serialized: a cloud's claims always equal its maintainer's logical edges
// between repairs (invariant 2), so restore derives them.
type CloudSnapshot struct {
	ID         ColorID
	Kind       CloudKind
	Maintainer *expander.Snapshot
}

// MembershipSnapshot lists the primary clouds one node belongs to.
type MembershipSnapshot struct {
	Node   graph.NodeID
	Colors []ColorID
}

// BridgeLinkSnapshot is one node's secondary duty.
type BridgeLinkSnapshot struct {
	Node      graph.NodeID
	Primary   ColorID
	Secondary ColorID
}

// Snapshot is the complete serializable state of a sequential engine. All
// collections are sorted, so encoding is deterministic: equal states produce
// byte-identical bytes.
type Snapshot struct {
	Version        int
	Kappa          int
	Seed           int64
	AlwaysCombine  bool
	DisableSharing bool
	RngDraws       uint64
	Graph          GraphSnapshot
	Baseline       GraphSnapshot
	Deleted        []graph.NodeID
	Claims         []ClaimSnapshot
	Clouds         []CloudSnapshot
	NodePrimaries  []MembershipSnapshot
	BridgeLinks    []BridgeLinkSnapshot
	SharedOnce     []graph.NodeID
	NextColor      ColorID
	Stats          Stats
}

// Snapshot captures the complete current state. The state must be quiescent
// (between events); the snapshot shares no memory with the live state.
func (s *State) Snapshot() *Snapshot {
	snap := &Snapshot{
		Version:        SnapshotVersion,
		Kappa:          s.kappa,
		Seed:           s.seed,
		AlwaysCombine:  s.alwaysCombine,
		DisableSharing: s.disableSharing,
		RngDraws:       s.src.Draws(),
		Graph:          TakeGraphSnapshot(s.g),
		Baseline:       TakeGraphSnapshot(s.gp),
		NextColor:      s.nextColor,
		Stats:          s.stats,
	}
	snap.Deleted = sortedNodeSet(s.deleted)
	snap.SharedOnce = sortedNodeSet(s.sharedOnce)

	snap.Claims = make([]ClaimSnapshot, 0, len(s.claims))
	for e, cl := range s.claims {
		snap.Claims = append(snap.Claims, ClaimSnapshot{
			Edge:   e,
			Black:  cl.black,
			Colors: append([]ColorID(nil), cl.colors...),
		})
	}
	slices.SortFunc(snap.Claims, func(a, b ClaimSnapshot) int {
		return graph.CompareEdges(a.Edge, b.Edge)
	})

	for _, id := range s.Clouds() { // ascending
		c := s.clouds[id]
		snap.Clouds = append(snap.Clouds, CloudSnapshot{
			ID: id, Kind: c.kind, Maintainer: c.m.Snapshot(),
		})
	}

	for _, n := range sortedNodeKeys(s.nodePrimaries) {
		set := s.nodePrimaries[n]
		if len(set) == 0 {
			continue // empty entries are semantically absent
		}
		colors := make([]ColorID, 0, len(set))
		for id := range set {
			colors = append(colors, id)
		}
		slices.Sort(colors)
		snap.NodePrimaries = append(snap.NodePrimaries, MembershipSnapshot{Node: n, Colors: colors})
	}

	for _, n := range sortedNodeKeys(s.bridgeLinks) {
		link := s.bridgeLinks[n]
		snap.BridgeLinks = append(snap.BridgeLinks, BridgeLinkSnapshot{
			Node: n, Primary: link.primary, Secondary: link.secondary,
		})
	}
	return snap
}

// RestoreState rebuilds a State from a snapshot. The restored state passes
// CheckInvariants before being returned, so a corrupt snapshot fails here
// rather than corrupting a serving run; its future behavior is bit-identical
// to the snapshotted original's.
func RestoreState(snap *Snapshot) (*State, error) {
	if snap == nil {
		return nil, fmt.Errorf("%w: nil", ErrBadSnapshot)
	}
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrBadSnapshot, snap.Version, SnapshotVersion)
	}
	if snap.Kappa < 2 || snap.Kappa%2 != 0 {
		return nil, fmt.Errorf("%w: kappa=%d", ErrBadSnapshot, snap.Kappa)
	}
	src := NewCountedSource(snap.Seed)
	src.Skip(snap.RngDraws)
	sw := &switchableSource{cur: src}
	s := &State{
		kappa:          snap.Kappa,
		seed:           snap.Seed,
		src:            src,
		sw:             sw,
		rng:            rand.New(sw),
		alwaysCombine:  snap.AlwaysCombine,
		disableSharing: snap.DisableSharing,
		g:              snap.Graph.Restore(),
		gp:             snap.Baseline.Restore(),
		deleted:        nodeSet(snap.Deleted),
		claims:         make(map[graph.Edge]edgeClaim, len(snap.Claims)),
		clouds:         make(map[ColorID]*cloud, len(snap.Clouds)),
		nodePrimaries:  make(map[graph.NodeID]map[ColorID]struct{}, len(snap.NodePrimaries)),
		bridgeLinks:    make(map[graph.NodeID]bridgeLink, len(snap.BridgeLinks)),
		sharedOnce:     nodeSet(snap.SharedOnce),
		nextColor:      snap.NextColor,
		stats:          snap.Stats,
	}
	for _, cl := range snap.Claims {
		if cl.Black == (len(cl.Colors) > 0) {
			return nil, fmt.Errorf("%w: claim on %v is not black xor colored", ErrBadSnapshot, cl.Edge)
		}
		s.claims[cl.Edge] = edgeClaim{black: cl.Black, colors: append([]ColorID(nil), cl.Colors...)}
	}
	for _, cs := range snap.Clouds {
		if _, dup := s.clouds[cs.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate cloud %d", ErrBadSnapshot, cs.ID)
		}
		if cs.ID >= s.nextColor {
			return nil, fmt.Errorf("%w: cloud %d at/above next color %d", ErrBadSnapshot, cs.ID, s.nextColor)
		}
		m, err := expander.Restore(cs.Maintainer, s.rng)
		if err != nil {
			return nil, fmt.Errorf("%w: cloud %d: %v", ErrBadSnapshot, cs.ID, err)
		}
		if m.Kappa() != s.kappa {
			return nil, fmt.Errorf("%w: cloud %d kappa %d != engine kappa %d", ErrBadSnapshot, cs.ID, m.Kappa(), s.kappa)
		}
		s.clouds[cs.ID] = &cloud{id: cs.ID, kind: cs.Kind, m: m, edges: m.EdgeSet()}
	}
	for _, ms := range snap.NodePrimaries {
		set := make(map[ColorID]struct{}, len(ms.Colors))
		for _, id := range ms.Colors {
			set[id] = struct{}{}
		}
		s.nodePrimaries[ms.Node] = set
	}
	for _, bl := range snap.BridgeLinks {
		s.bridgeLinks[bl.Node] = bridgeLink{primary: bl.Primary, secondary: bl.Secondary}
	}
	if err := s.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("%w: restored state: %v", ErrBadSnapshot, err)
	}
	return s, nil
}

// SnapshotState serializes the complete engine state in the deterministic
// binary form described at the top of this file — the engine-agnostic bytes
// a checkpoint store persists (see internal/server's Snapshotter).
func (s *State) SnapshotState() ([]byte, error) {
	if s.poisoned != nil {
		return nil, s.poisonedErr()
	}
	var w wire.Writer
	s.Snapshot().Encode(&w)
	return w.Bytes(), nil
}

// LoadSnapshot decodes an engine snapshot serialized by SnapshotState.
func LoadSnapshot(data []byte) (*Snapshot, error) {
	r := wire.NewReader(data)
	snap := DecodeSnapshot(r)
	if r.Err() == nil && snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrBadSnapshot, snap.Version, SnapshotVersion)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return snap, nil
}

// Encode appends the snapshot's binary form to w, fields in declaration
// order. Lists sorted by node or edge carry their keys as differences; a
// claim's color count doubles as its Black flag (zero colors is black).
func (snap *Snapshot) Encode(w *wire.Writer) {
	w.Uvarint(uint64(snap.Version))
	w.Int(int64(snap.Kappa))
	w.Int(snap.Seed)
	w.Bool(snap.AlwaysCombine)
	w.Bool(snap.DisableSharing)
	w.Uvarint(snap.RngDraws)
	encodeGraph(w, snap.Graph)
	encodeGraph(w, snap.Baseline)
	w.Nodes(snap.Deleted)

	w.Uvarint(uint64(len(snap.Claims)))
	var prevEdge graph.Edge
	for _, cl := range snap.Claims {
		w.Edge(prevEdge, cl.Edge)
		prevEdge = cl.Edge
		encodeColors(w, cl.Colors)
	}

	w.Uvarint(uint64(len(snap.Clouds)))
	for _, c := range snap.Clouds {
		w.Int(int64(c.ID))
		w.Int(int64(c.Kind))
		c.Maintainer.Encode(w)
	}

	w.Uvarint(uint64(len(snap.NodePrimaries)))
	prevNode := graph.NodeID(0)
	for _, ms := range snap.NodePrimaries {
		w.Uvarint(uint64(ms.Node - prevNode))
		prevNode = ms.Node
		encodeColors(w, ms.Colors)
	}

	w.Uvarint(uint64(len(snap.BridgeLinks)))
	prevNode = 0
	for _, bl := range snap.BridgeLinks {
		w.Uvarint(uint64(bl.Node - prevNode))
		prevNode = bl.Node
		w.Int(int64(bl.Primary))
		w.Int(int64(bl.Secondary))
	}

	w.Nodes(snap.SharedOnce)
	w.Int(int64(snap.NextColor))
	for _, v := range snap.Stats.fields() {
		w.Int(int64(*v))
	}
}

// DecodeSnapshot reads what Encode wrote. Failures stay in r (see
// wire.Reader.Err); RestoreState validates the content. A snapshot of
// another version is returned with only Version set.
func DecodeSnapshot(r *wire.Reader) *Snapshot {
	snap := &Snapshot{Version: int(r.Uvarint())}
	if snap.Version != SnapshotVersion {
		// Whatever follows is in another schema (a version-1 snapshot is
		// JSON): stop before reading it as lengths. Callers check Version.
		return snap
	}
	snap.Kappa = int(r.Int())
	snap.Seed = r.Int()
	snap.AlwaysCombine = r.Bool()
	snap.DisableSharing = r.Bool()
	snap.RngDraws = r.Uvarint()
	snap.Graph = decodeGraph(r)
	snap.Baseline = decodeGraph(r)
	snap.Deleted = r.Nodes()

	// A claim is an edge (two values) and a color count.
	snap.Claims = make([]ClaimSnapshot, r.Count(3))
	var prevEdge graph.Edge
	for i := range snap.Claims {
		prevEdge = r.Edge(prevEdge)
		colors := decodeColors(r)
		snap.Claims[i] = ClaimSnapshot{Edge: prevEdge, Black: len(colors) == 0, Colors: colors}
	}

	// A cloud is an ID, a kind, and a maintainer of at least four values.
	snap.Clouds = make([]CloudSnapshot, r.Count(6))
	for i := range snap.Clouds {
		snap.Clouds[i] = CloudSnapshot{
			ID:         ColorID(r.Int()),
			Kind:       CloudKind(r.Int()),
			Maintainer: expander.DecodeSnapshot(r),
		}
	}

	snap.NodePrimaries = make([]MembershipSnapshot, r.Count(2))
	prevNode := graph.NodeID(0)
	for i := range snap.NodePrimaries {
		prevNode += graph.NodeID(r.Uvarint())
		snap.NodePrimaries[i] = MembershipSnapshot{Node: prevNode, Colors: decodeColors(r)}
	}

	snap.BridgeLinks = make([]BridgeLinkSnapshot, r.Count(3))
	prevNode = 0
	for i := range snap.BridgeLinks {
		prevNode += graph.NodeID(r.Uvarint())
		snap.BridgeLinks[i] = BridgeLinkSnapshot{
			Node: prevNode, Primary: ColorID(r.Int()), Secondary: ColorID(r.Int()),
		}
	}

	snap.SharedOnce = r.Nodes()
	snap.NextColor = ColorID(r.Int())
	for _, v := range snap.Stats.fields() {
		*v = int(r.Int())
	}
	return snap
}

func encodeGraph(w *wire.Writer, gs GraphSnapshot) {
	w.Nodes(gs.Nodes)
	w.Edges(gs.Edges)
}

func decodeGraph(r *wire.Reader) GraphSnapshot {
	return GraphSnapshot{Nodes: r.Nodes(), Edges: r.Edges()}
}

// encodeColors writes a color list in the order given: a claim's colors are
// in claiming order, which restore must reproduce.
func encodeColors(w *wire.Writer, colors []ColorID) {
	w.Uvarint(uint64(len(colors)))
	for _, id := range colors {
		w.Int(int64(id))
	}
}

func decodeColors(r *wire.Reader) []ColorID {
	colors := make([]ColorID, r.Count(1))
	for i := range colors {
		colors[i] = ColorID(r.Int())
	}
	return colors
}

// fields lists the counters in wire order.
func (st *Stats) fields() [8]*int {
	return [8]*int{
		&st.Insertions, &st.Deletions, &st.HealEdgesAdded, &st.HealEdgesRemoved,
		&st.PrimaryClouds, &st.SecondaryClouds, &st.Combines, &st.Shares,
	}
}

func sortedNodeSet(set map[graph.NodeID]struct{}) []graph.NodeID {
	if len(set) == 0 {
		return nil
	}
	out := make([]graph.NodeID, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

func sortedNodeKeys[V any](m map[graph.NodeID]V) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

func nodeSet(nodes []graph.NodeID) map[graph.NodeID]struct{} {
	set := make(map[graph.NodeID]struct{}, len(nodes))
	for _, n := range nodes {
		set[n] = struct{}{}
	}
	return set
}
