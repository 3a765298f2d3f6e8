package core

import (
	"fmt"
	"math/rand"
	"slices"

	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/obs"
)

// DefaultKappa is the expander degree parameter used when Config.Kappa is
// zero. κ is "a small parameter (which is implementation dependent, can be
// chosen to be a constant)" (paper §1); 6 gives three Hamilton cycles.
const DefaultKappa = 6

// Config parameterizes a State.
type Config struct {
	// Kappa is the expander degree parameter κ (even, ≥ 2). 0 selects
	// DefaultKappa.
	Kappa int
	// Seed seeds the algorithm's private randomness (H-graph construction).
	// The adversary is oblivious to it, per the paper's model.
	Seed int64

	// AlwaysCombine disables secondary clouds: affected groups are combined
	// into one primary cloud on every multi-group repair. Ablation knob for
	// the paper's amortization argument (secondary clouds exist to make
	// combining rare); not part of the paper's algorithm.
	AlwaysCombine bool
	// DisableSharing disables free-node sharing: repairs combine whenever
	// the bipartite matching alone cannot serve every group. Ablation knob.
	DisableSharing bool
}

// State is the sequential Xheal instance: the healed graph G, the
// insertions-only graph G′, and all cloud/color bookkeeping.
//
// Not safe for concurrent mutation; concurrent reads are safe.
type State struct {
	kappa          int
	seed           int64
	src            *CountedSource // the counted main stream (snapshot position)
	sw             *switchableSource
	rng            *rand.Rand // reads through sw; normally sw.cur == src
	alwaysCombine  bool
	disableSharing bool

	g       *graph.Graph // healed graph (physical)
	gp      *graph.Graph // G′: original + insertions, deletions ignored
	deleted map[graph.NodeID]struct{}

	claims map[graph.Edge]edgeClaim
	clouds map[ColorID]*cloud

	// nodePrimaries[n] is the set of primary clouds n belongs to;
	// bridgeLinks[n] is n's unique secondary duty, if any.
	nodePrimaries map[graph.NodeID]map[ColorID]struct{}
	bridgeLinks   map[graph.NodeID]bridgeLink

	// sharedOnce marks nodes that have been shared into a foreign primary
	// cloud; the paper forbids sharing a node twice (Lemma 3).
	sharedOnce map[graph.NodeID]struct{}

	nextColor ColorID
	stats     Stats

	// colorSlab is a chunked arena handing out the capacity-1 color slices
	// single-color claims hold — the overwhelmingly common case — so claim
	// churn costs one allocation per chunk instead of one per claimed edge.
	colorSlab []ColorID

	// deltaLog, when non-nil, accumulates the net physical edge changes of
	// the current repair (see DeleteNodeDelta).
	deltaLog map[graph.Edge]int8

	// tick, when non-nil, accumulates the net structural changes of the
	// whole in-flight batch — wound edges and node set changes included
	// (see BeginTickDelta / TakeTickDelta in tickdelta.go).
	tick *tickAcc
	// tickSpare keeps the previous capture's accumulator for reuse, so the
	// steady-state tick path doesn't pay a fresh map per batch.
	tickSpare *tickAcc

	// rec, when non-nil, receives per-wound trace callbacks (repair
	// admission, rewiring, cloud construction). All obs.Recorder methods
	// no-op on nil, so the disabled hot path pays one nil check.
	rec *obs.Recorder

	// capture, when non-nil, diverts recorder callbacks into an in-memory
	// list instead of rec. ApplyBatchParallel sets it on the scoped states so
	// concurrent repairs never touch the shared recorder; the coordinator
	// replays the captured calls in batch order after the merge.
	capture *repairCapture

	// seedQueue, when non-nil, feeds deleteNode its per-repair sub-stream
	// seeds instead of the main stream. ApplyBatchParallel pre-draws one seed
	// per deletion in batch order and routes each group's share here, so the
	// main stream advances identically to a serial run.
	seedQueue []int64

	// inv carries the rotating cursors of CheckInvariantsSampled;
	// bookkeeping only, outside Snapshot identity.
	inv invCursors

	// poisoned, once set, fail-stops the State: every mutating or exporting
	// call returns ErrPoisoned wrapping this cause. See ApplyBatch's contract.
	poisoned error

	// lastGroups records the repair groups of the most recent
	// ApplyBatchParallel call, in merge order; see LastRepairGroups.
	lastGroups [][]graph.NodeID
}

// NewState builds a State over a copy of the initial graph g0, whose edges
// are colored black (paper: "the original edges of G ... are all colored
// black initially").
func NewState(cfg Config, g0 *graph.Graph) (*State, error) {
	if g0 == nil {
		return nil, ErrNilGraph
	}
	kappa := cfg.Kappa
	if kappa == 0 {
		kappa = DefaultKappa
	}
	if kappa < 2 || kappa%2 != 0 {
		return nil, fmt.Errorf("kappa=%d: %w", kappa, ErrBadKappa)
	}
	src := NewCountedSource(cfg.Seed)
	sw := &switchableSource{cur: src}
	s := &State{
		kappa:          kappa,
		seed:           cfg.Seed,
		src:            src,
		sw:             sw,
		rng:            rand.New(sw),
		alwaysCombine:  cfg.AlwaysCombine,
		disableSharing: cfg.DisableSharing,
		g:              g0.Clone(),
		gp:             g0.Clone(),
		deleted:        make(map[graph.NodeID]struct{}),
		claims:         make(map[graph.Edge]edgeClaim, g0.NumEdges()),
		clouds:         make(map[ColorID]*cloud),
		nodePrimaries:  make(map[graph.NodeID]map[ColorID]struct{}),
		bridgeLinks:    make(map[graph.NodeID]bridgeLink),
		sharedOnce:     make(map[graph.NodeID]struct{}),
		nextColor:      1,
	}
	for _, e := range g0.Edges() {
		s.claims[e] = edgeClaim{black: true}
	}
	return s, nil
}

// Kappa returns the expander degree parameter κ.
func (s *State) Kappa() int { return s.kappa }

// SetRecorder attaches a per-wound trace recorder (nil detaches it). The
// recorder learns every applied event and the repair phase boundaries of
// every deletion; see internal/obs.
func (s *State) SetRecorder(r *obs.Recorder) { s.rec = r }

// Graph returns the healed graph G. The returned graph is live and must not
// be modified; use CloneGraph for a mutable copy.
func (s *State) Graph() *graph.Graph { return s.g }

// CloneGraph returns a mutable deep copy of the healed graph.
func (s *State) CloneGraph() *graph.Graph { return s.g.Clone() }

// Baseline returns G′: the graph of original nodes and adversarial
// insertions with deletions ignored (deleted nodes are still present). Live
// view; must not be modified.
func (s *State) Baseline() *graph.Graph { return s.gp }

// Alive reports whether n exists in the healed graph.
func (s *State) Alive(n graph.NodeID) bool { return s.g.HasNode(n) }

// AliveNodes returns the nodes of the healed graph, ascending. The slice is
// the graph's cached read-only view (see graph.Graph.Nodes): do not modify
// it; copy to shuffle or retain a mutable list.
func (s *State) AliveNodes() []graph.NodeID { return s.g.Nodes() }

// Stats returns a copy of the healing-work counters.
func (s *State) Stats() Stats { return s.stats }

// EdgeColors returns the colors claiming the physical edge {u, v}: nil with
// ok=false if the edge is absent, an empty slice for a black edge, and the
// sorted cloud colors otherwise. The result is a fresh slice the caller may
// keep; hot paths that only test blackness should use IsBlackEdge.
func (s *State) EdgeColors(u, v graph.NodeID) (colors []ColorID, ok bool) {
	cl, present := s.claims[graph.NewEdge(u, v)]
	if !present {
		return nil, false
	}
	if cl.black {
		return []ColorID{}, true
	}
	return append(make([]ColorID, 0, len(cl.colors)), cl.colors...), true
}

// IsBlackEdge reports whether the physical edge {u, v} exists and carries
// the black claim, without allocating.
func (s *State) IsBlackEdge(u, v graph.NodeID) (black, ok bool) {
	cl, present := s.claims[graph.NewEdge(u, v)]
	return cl.black, present
}

// PrimariesOf returns the primary clouds containing n, ascending.
func (s *State) PrimariesOf(n graph.NodeID) []ColorID {
	set := s.nodePrimaries[n]
	out := make([]ColorID, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

// SecondaryOf returns the secondary cloud n bridges for, or (0, false).
func (s *State) SecondaryOf(n graph.NodeID) (ColorID, bool) {
	link, ok := s.bridgeLinks[n]
	if !ok {
		return 0, false
	}
	return link.secondary, true
}

// CloudMembers returns the member set of cloud id (ascending) and its kind.
// The slice is a fresh copy the caller may keep and modify.
func (s *State) CloudMembers(id ColorID) ([]graph.NodeID, CloudKind, bool) {
	c, ok := s.clouds[id]
	if !ok {
		return nil, 0, false
	}
	return append([]graph.NodeID(nil), c.members()...), c.kind, true
}

// Clouds returns all live cloud colors, ascending.
func (s *State) Clouds() []ColorID {
	out := make([]ColorID, 0, len(s.clouds))
	for id := range s.clouds {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// InsertNode applies an adversarial insertion: node u joins with black edges
// to the given existing nodes (paper: "Addition is straightforward, the
// algorithm takes no action. The added edges are colored black.").
//
// Node IDs of deleted nodes cannot be reused: G′ still contains them.
func (s *State) InsertNode(u graph.NodeID, nbrs []graph.NodeID) error {
	if s.poisoned != nil {
		return s.poisonedErr()
	}
	if s.g.HasNode(u) {
		return fmt.Errorf("insert %d: %w", u, ErrNodeExists)
	}
	if _, wasDeleted := s.deleted[u]; wasDeleted || s.gp.HasNode(u) {
		return fmt.Errorf("insert %d: %w", u, ErrReusedNodeID)
	}
	seen := make(map[graph.NodeID]struct{}, len(nbrs))
	for _, w := range nbrs {
		if w == u {
			return fmt.Errorf("insert %d: %w", u, ErrSelfInsert)
		}
		if !s.g.HasNode(w) {
			return fmt.Errorf("insert %d with neighbor %d: %w", u, w, ErrBadNeighbor)
		}
		if _, dup := seen[w]; dup {
			return fmt.Errorf("insert %d: duplicate neighbor %d: %w", u, w, ErrBadNeighbor)
		}
		seen[w] = struct{}{}
	}
	if err := s.g.AddNode(u); err != nil {
		return err
	}
	if err := s.gp.AddNode(u); err != nil {
		return err
	}
	for _, w := range nbrs {
		if err := s.g.AddEdge(u, w); err != nil {
			return err
		}
		if err := s.gp.AddEdge(u, w); err != nil {
			return err
		}
		s.claims[graph.NewEdge(u, w)] = edgeClaim{black: true}
	}
	s.noteNodeInserted(u, nbrs)
	s.stats.Insertions++
	s.rec.InsertApplied()
	return nil
}

// DeleteNode applies an adversarial deletion of v and runs the Xheal repair
// (Algorithm 3.1). G′ is unchanged by deletions.
func (s *State) DeleteNode(v graph.NodeID) error {
	return s.deleteNode(v, true)
}

// deleteNode is DeleteNode's body. When settle is true the repair's trace
// span (if a recorder is attached) is closed on return; the distributed
// engine passes false through DeleteNodeDelta because its repair continues
// with the message protocol (election and dissemination) and it settles the
// span itself.
func (s *State) deleteNode(v graph.NodeID, settle bool) error {
	if s.poisoned != nil {
		return s.poisonedErr()
	}
	if !s.g.HasNode(v) {
		return fmt.Errorf("delete %d: %w", v, ErrNodeMissing)
	}

	// Every repair consumes exactly one value from the main counted stream:
	// the seed of an ephemeral, uncounted sub-stream that supplies all of the
	// repair's randomness (H-graph wiring, shuffles). This is the draw-merge
	// rule that keeps Snapshot byte-deterministic under parallel batching:
	// src.Draws() advances by one per deletion regardless of how repairs are
	// grouped or interleaved, and a repair's outcome depends only on its own
	// seed — never on how many values earlier repairs happened to draw.
	prev := s.sw.cur
	s.sw.cur = rand.NewSource(s.nextRepairSeed()).(rand.Source64)
	defer func() { s.sw.cur = prev }()

	// Gather v's situation before mutating anything.
	blackNbrs := s.blackNeighborsOf(v)
	primaries := s.PrimariesOf(v)
	link, hasLink := s.bridgeLinks[v]
	s.traceRepairBegin(v, len(s.g.Neighbors(v)), len(blackNbrs))

	// Physically remove v; its incident edges and their claims die with it.
	nbrs, err := s.g.RemoveNode(v)
	if err != nil {
		return err
	}
	for _, w := range nbrs {
		delete(s.claims, graph.NewEdge(v, w))
	}
	s.noteNodeRemoved(v, nbrs)
	s.deleted[v] = struct{}{}
	delete(s.nodePrimaries, v)
	delete(s.bridgeLinks, v)
	delete(s.sharedOnce, v)

	// Dispatch the repair case (paper Algorithm 3.1).
	switch {
	case len(primaries) == 0 && !hasLink:
		s.caseAllBlack(blackNbrs)
	case !hasLink:
		s.casePrimaryOnly(v, primaries, blackNbrs)
	default:
		s.caseSecondaryBridge(v, link, primaries, blackNbrs)
	}
	s.stats.Deletions++
	s.tracePhase(obs.PhaseRewired)
	if settle {
		s.traceRepairEnd()
	}
	return nil
}

// nextRepairSeed returns the sub-stream seed for the next repair: popped
// from the pre-drawn queue when one is installed (scoped parallel runs),
// otherwise one counted draw from the main stream.
func (s *State) nextRepairSeed() int64 {
	if s.seedQueue != nil {
		if len(s.seedQueue) == 0 {
			panic("core: repair seed queue exhausted")
		}
		seed := s.seedQueue[0]
		s.seedQueue = s.seedQueue[1:]
		return seed
	}
	return int64(s.src.Uint64())
}

// EdgeDelta is the net physical edge change one healing repair made,
// excluding the edges that died with the deleted node itself. Edges are in
// canonical sorted order.
type EdgeDelta struct {
	Added, Removed []graph.Edge
}

const (
	deltaAdded   int8 = 1
	deltaRemoved int8 = -1
)

// logDelta nets one physical edge change into the active delta logs: an add
// cancels a pending remove of the same edge and vice versa, so an edge the
// repair drops and re-wires contributes nothing.
func (s *State) logDelta(e graph.Edge, kind int8) {
	if s.deltaLog != nil {
		netDelta(s.deltaLog, e, kind)
	}
	if s.tick != nil {
		netDelta(s.tick.edges, e, kind)
	}
}

// DeleteNodeDelta is DeleteNode, additionally returning the net physical
// edge changes the healing performed. It lets a driver (the distributed
// engine) learn the repair in O(|wound| + |delta|) instead of diffing full
// graph snapshots.
func (s *State) DeleteNodeDelta(v graph.NodeID) (EdgeDelta, error) {
	s.deltaLog = make(map[graph.Edge]int8)
	err := s.deleteNode(v, false)
	var delta EdgeDelta
	for e, kind := range s.deltaLog {
		if kind == deltaAdded {
			delta.Added = append(delta.Added, e)
		} else {
			delta.Removed = append(delta.Removed, e)
		}
	}
	s.deltaLog = nil
	sortEdges(delta.Added)
	sortEdges(delta.Removed)
	return delta, err
}

func sortEdges(edges []graph.Edge) {
	slices.SortFunc(edges, graph.CompareEdges)
}

// blackNeighborsOf returns the neighbors of v connected by black edges.
func (s *State) blackNeighborsOf(v graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for _, w := range s.g.Neighbors(v) {
		if cl, ok := s.claims[graph.NewEdge(v, w)]; ok && cl.black {
			out = append(out, w)
		}
	}
	return out
}

// --- claim plumbing -------------------------------------------------------

// addClaim records cloud color's claim on edge e, creating the physical edge
// if needed and absorbing any black claim (the paper's re-coloring).
func (s *State) addClaim(e graph.Edge, color ColorID) {
	cl, ok := s.claims[e]
	if !ok {
		s.g.EnsureEdge(e.U, e.V)
		s.stats.HealEdgesAdded++
		s.logDelta(e, deltaAdded)
	}
	if len(cl.colors) == 0 {
		cl = edgeClaim{colors: s.singleColor(color)}
	} else {
		cl = cl.withColor(color)
	}
	s.claims[e] = cl
}

// singleColor returns a capacity-1 slice holding color, carved from the
// arena. Growing past one color (rare) reallocates through slices.Insert.
func (s *State) singleColor(color ColorID) []ColorID {
	if len(s.colorSlab) == 0 {
		s.colorSlab = make([]ColorID, 512)
	}
	out := s.colorSlab[:1:1]
	out[0] = color
	s.colorSlab = s.colorSlab[1:]
	return out
}

// releaseClaim drops color's claim on e, removing the physical edge when no
// claims remain. Edges already destroyed by a node deletion are tolerated.
func (s *State) releaseClaim(e graph.Edge, color ColorID) {
	cl, ok := s.claims[e]
	if !ok {
		return
	}
	cl = cl.withoutColor(color)
	if !cl.empty() {
		s.claims[e] = cl
		return
	}
	delete(s.claims, e)
	if s.g.HasEdge(e.U, e.V) {
		if err := s.g.RemoveEdge(e.U, e.V); err == nil {
			s.stats.HealEdgesRemoved++
			s.logDelta(e, deltaRemoved)
		}
	}
}

// reconcileCloud synchronizes the physical claims of c with its maintainer's
// logical edge set. The diff runs against the maintainer's sorted edge list
// (binary search for stale claims, map lookup for new ones) and updates
// c.edges in place, so a repair allocates no per-reconcile set.
func (s *State) reconcileCloud(c *cloud) {
	want := c.m.Edges() // canonical sorted order (see expander.Edges)
	inWant := func(e graph.Edge) bool {
		_, found := slices.BinarySearchFunc(want, e, graph.CompareEdges)
		return found
	}
	for e := range c.edges {
		if !inWant(e) {
			s.releaseClaim(e, c.id)
			delete(c.edges, e)
		}
	}
	for _, e := range want {
		if _, have := c.edges[e]; !have {
			s.addClaim(e, c.id)
			c.edges[e] = struct{}{}
		}
	}
}

// dropCloud releases all of c's claims and removes it from the registry.
// Membership maps must be cleaned by the caller.
func (s *State) dropCloud(c *cloud) {
	for e := range c.edges {
		s.releaseClaim(e, c.id)
	}
	delete(s.clouds, c.id)
}

// allocColor returns a fresh unique color.
func (s *State) allocColor() ColorID {
	id := s.nextColor
	s.nextColor++
	return id
}
