package dist

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"github.com/xheal/xheal/internal/core"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/obs"
)

// Config parameterizes an Engine.
type Config struct {
	// Kappa is the expander degree parameter κ (even, ≥ 2); 0 selects
	// core.DefaultKappa.
	Kappa int
	// Seed seeds the protocol's private randomness: the healing decisions
	// (H-graph wiring, via internal/core) and the nodes' leader ranks.
	Seed int64
}

// DeletionCost is one repair's measured cost, the empirical side of
// Theorem 5 and Lemma 5.
type DeletionCost struct {
	// Node is the deleted node.
	Node graph.NodeID
	// BlackDegree is the number of black (original or adversary-inserted)
	// edges incident to the node at deletion time — the deg_G′ term of
	// Lemma 5's Θ(deg) lower bound.
	BlackDegree int
	// Wound is the node's full degree at deletion time (the number of
	// wound members), the parameter of Theorem 5's per-repair bounds.
	Wound int
	// Rounds is the number of synchronous rounds the repair took.
	Rounds int
	// Messages is the number of protocol messages delivered for the repair.
	Messages int
}

// Totals aggregates the protocol work performed so far.
type Totals struct {
	// Deletions is the number of repairs completed.
	Deletions int
	// Rounds and Messages count all protocol rounds and messages, including
	// the one-round insertion greetings.
	Rounds   int
	Messages int
}

// ErrClosed is returned by mutating calls after Close.
var ErrClosed = errors.New("dist: engine is closed")

// Engine runs the distributed Xheal protocol: every alive node keeps its own
// protocol state and coordinates with the others exclusively by messages, in
// synchronous rounds.
//
// The zero value is not usable; call NewEngine. Not safe for concurrent use.
type Engine struct {
	st  *core.State
	src *core.CountedSource // the stream behind rng, counted for snapshots
	rng *rand.Rand

	nodes map[graph.NodeID]*node

	costs       []DeletionCost
	totals      Totals
	blackDegSum int

	// plan is the current wound's repair outcome, computed by the reference
	// implementation and read by the elected leader when it "runs" Algorithm
	// 3.1 on the gathered state. Set for the duration of one repair's rounds.
	plan *repairPlan

	// rec, when non-nil, receives per-wound trace callbacks. The inner
	// reference state emits admission/rewiring; the engine adds the
	// protocol phases (election, dissemination) and the ledger costs.
	rec *obs.Recorder

	// viewCursor rotates CheckInvariantsSampled's local-view window over
	// the sorted alive nodes; bookkeeping only.
	viewCursor int

	closed bool
}

// NewEngine builds the engine over a copy of the initial topology, with one
// protocol node per alive node. Every node starts knowing exactly its own
// neighbors (the initial topology is common knowledge in the paper's model).
func NewEngine(cfg Config, g0 *graph.Graph) (*Engine, error) {
	st, err := core.NewState(core.Config{Kappa: cfg.Kappa, Seed: cfg.Seed}, g0)
	if err != nil {
		return nil, err
	}
	src := core.NewCountedSource(cfg.Seed ^ rankSeedSalt)
	e := &Engine{
		st:    st,
		src:   src,
		rng:   rand.New(src),
		nodes: make(map[graph.NodeID]*node, g0.NumNodes()),
	}
	g := st.Graph()
	for _, id := range g.Nodes() {
		e.spawn(id).view = slices.Clone(g.Neighbors(id))
	}
	return e, nil
}

// spawn creates the protocol node for a new alive node, drawing its rank.
func (e *Engine) spawn(id graph.NodeID) *node {
	nd := &node{id: id, rank: e.rng.Int63()}
	e.nodes[id] = nd
	return nd
}

// SetRecorder attaches a per-wound trace recorder (nil detaches it). Spans
// open when the reference state admits the deletion and settle only after
// the protocol disseminated the repair, so a distributed span covers the
// full message-passing lifecycle: admitted → rewired (plan computed) →
// elected → disseminated → settled, with the ledger's rounds/messages.
func (e *Engine) SetRecorder(r *obs.Recorder) {
	e.rec = r
	e.st.SetRecorder(r)
}

// Graph returns the healed graph G. Live view — do not modify.
func (e *Engine) Graph() *graph.Graph { return e.st.Graph() }

// State returns the underlying reference state (alive nodes, baseline G′,
// cloud bookkeeping). Live view — do not modify through it.
func (e *Engine) State() *core.State { return e.st }

// Costs returns a copy of the per-deletion cost ledger, in deletion order.
func (e *Engine) Costs() []DeletionCost {
	out := make([]DeletionCost, len(e.costs))
	copy(out, e.costs)
	return out
}

// Totals returns the aggregate protocol work counters.
func (e *Engine) Totals() Totals { return e.totals }

// AmortizedLowerBound returns A(p): the amortized Lemma 5 message lower
// bound over the deletions so far — the mean black degree of the deleted
// nodes. Zero before the first deletion.
func (e *Engine) AmortizedLowerBound() float64 {
	if len(e.costs) == 0 {
		return 0
	}
	return float64(e.blackDegSum) / float64(len(e.costs))
}

// Insert applies an adversarial insertion: u joins with black edges to the
// given alive nodes. The joining node knows the neighbors it dialed; each of
// them learns of u by a greeting message (one round, len(nbrs) messages).
func (e *Engine) Insert(u graph.NodeID, nbrs []graph.NodeID) error {
	if e.closed {
		return ErrClosed
	}
	if err := e.st.InsertNode(u, nbrs); err != nil {
		return err
	}
	nd := e.spawn(u)
	pending := make([]message, 0, len(nbrs))
	for _, w := range nbrs {
		nd.link(w)
		pending = append(pending, message{from: u, to: w, kind: msgHello, subject: u})
	}
	rounds, msgs := e.runProtocol(pending)
	e.totals.Rounds += rounds
	e.totals.Messages += msgs
	return nil
}

// Delete applies an adversarial deletion of v and heals the wound through
// the message protocol: detection, leader election over the wound, and
// dissemination of the κ-regular cloud wiring. The repair's rounds and
// messages are appended to the cost ledger.
func (e *Engine) Delete(v graph.NodeID) error {
	if e.closed {
		return ErrClosed
	}
	if !e.st.Alive(v) {
		return fmt.Errorf("dist: delete %d: %w", v, core.ErrNodeMissing)
	}
	wound := e.st.Graph().Neighbors(v) // sorted
	blackDeg := 0
	for _, w := range wound {
		if black, ok := e.st.IsBlackEdge(v, w); ok && black {
			blackDeg++
		}
	}
	delta, err := e.st.DeleteNodeDelta(v)
	if err != nil {
		return err
	}
	delete(e.nodes, v)
	e.plan = buildPlan(v, delta)

	pending := make([]message, 0, len(wound))
	for _, w := range wound {
		pending = append(pending, message{
			from: v, to: w, kind: msgDown, subject: v, roster: wound,
		})
	}
	rounds, msgs := e.runProtocol(pending)
	e.rec.Phase(obs.PhaseDisseminated)
	e.plan = nil
	// The wound is closed: release every member's election state so the
	// gathered reports don't accumulate for the engine's lifetime and a
	// stray cross-wound aggregate or grant fails fast.
	for _, w := range wound {
		if nd, ok := e.nodes[w]; ok {
			nd.wound = nil
		}
	}

	e.costs = append(e.costs, DeletionCost{
		Node: v, BlackDegree: blackDeg, Wound: len(wound), Rounds: rounds, Messages: msgs,
	})
	e.rec.Cost(rounds, msgs)
	e.rec.RepairEnd()
	e.blackDegSum += blackDeg
	e.totals.Deletions++
	e.totals.Rounds += rounds
	e.totals.Messages += msgs
	return nil
}

// ApplyBatch applies a multi-event timestep with the same semantics as the
// sequential reference (core.State.ApplyBatch): the batch is validated up
// front and rejected wholesale on conflict, then every insertion runs as a
// greeting round and every deletion as a full message-protocol repair, in
// batch order. The cost ledger gains one entry per deletion, exactly as if
// the adversary had presented the events back-to-back (the paper's remark
// that the algorithm "can be extended to handle multiple
// insertions/deletions", realized on the §5 engine so a maintenance daemon
// can host either engine interchangeably).
func (e *Engine) ApplyBatch(b core.Batch) error {
	if e.closed {
		return ErrClosed
	}
	if err := e.st.ValidateBatch(b); err != nil {
		return err
	}
	for _, ins := range b.Insertions {
		if err := e.Insert(ins.Node, ins.Neighbors); err != nil {
			return fmt.Errorf("dist: batch insertion %d: %w", ins.Node, err)
		}
	}
	for _, d := range b.Deletions {
		if err := e.Delete(d); err != nil {
			return fmt.Errorf("dist: batch deletion %d: %w", d, err)
		}
	}
	return nil
}

// ApplyBatchDelta is ApplyBatch, additionally returning the net structural
// change the batch made (facade parity with core.State.ApplyBatchDelta, for
// the serving daemon's incremental metrics tracker). The distributed
// protocol is inherently serial per deletion, so workers is ignored.
func (e *Engine) ApplyBatchDelta(b core.Batch, _ int) (core.TickDelta, error) {
	if e.closed {
		return core.TickDelta{}, ErrClosed
	}
	e.st.BeginTickDelta()
	err := e.ApplyBatch(b)
	d := e.st.TakeTickDelta()
	if err != nil {
		return core.TickDelta{}, err
	}
	return d, nil
}

// BeginAdmission starts an incremental batch admission with
// core.State.ValidateBatch's semantics at O(event) per decision (see
// core.BatchAdmission). Admission only reads the reference state, so it
// works on a closed engine too; applying the admitted batch then reports
// ErrClosed.
func (e *Engine) BeginAdmission() *core.BatchAdmission {
	return e.st.BeginAdmission()
}

// Baseline returns G′: original nodes plus insertions, with deletions
// ignored. Live view — do not modify.
func (e *Engine) Baseline() *graph.Graph { return e.st.Baseline() }

// Kappa returns the expander degree parameter κ.
func (e *Engine) Kappa() int { return e.st.Kappa() }

// CheckInvariants verifies the full internal consistency of the engine: the
// reference state's structural invariants (cloud structure, edge claims, the
// degree bound) plus every node's message-built local view against the
// healed graph. Facade parity with Network.CheckInvariants.
func (e *Engine) CheckInvariants() error {
	if err := e.st.CheckInvariants(); err != nil {
		return err
	}
	return e.ValidateLocalViews()
}

// CheckInvariantsSampled is CheckInvariants with a rotating per-call budget
// (see core.State.CheckInvariantsSampled): a budgeted window of the state
// invariants plus a budgeted window of local-view validations, so the
// serve-path invariant gate stays O(budget) per tick at any network size.
func (e *Engine) CheckInvariantsSampled(budget int) error {
	if e.closed {
		return ErrClosed
	}
	if budget <= 0 {
		return e.CheckInvariants()
	}
	if err := e.st.CheckInvariantsSampled(budget); err != nil {
		return err
	}
	g := e.st.Graph()
	alive := g.Nodes()
	if len(e.nodes) != len(alive) {
		return fmt.Errorf("dist: %d protocol nodes for %d alive nodes", len(e.nodes), len(alive))
	}
	n := len(alive)
	if n == 0 {
		return nil
	}
	if budget > n {
		budget = n
	}
	e.viewCursor %= n
	for i := 0; i < budget; i++ {
		id := alive[(e.viewCursor+i)%n]
		if err := e.validateLocalView(g, id); err != nil {
			return err
		}
	}
	e.viewCursor = (e.viewCursor + budget) % n
	return nil
}

// planFor hands the current wound's repair plan to the elected leader.
func (e *Engine) planFor(victim graph.NodeID) *repairPlan {
	if e.plan == nil || e.plan.victim != victim {
		// A leader can only be elected inside the wound the engine opened.
		panic(fmt.Sprintf("dist: no repair plan for victim %d", victim))
	}
	// The leader picking up the plan is the moment the election resolved.
	e.rec.Phase(obs.PhaseElected)
	return e.plan
}

// buildPlan slices the repair's net edge delta per affected node. The delta
// already excludes edges incident to the victim: their loss is learned from
// the failure notification itself.
func buildPlan(victim graph.NodeID, delta core.EdgeDelta) *repairPlan {
	plan := &repairPlan{victim: victim, updates: make(map[graph.NodeID]*edgeUpdate)}
	at := func(id graph.NodeID) *edgeUpdate {
		up, ok := plan.updates[id]
		if !ok {
			up = &edgeUpdate{}
			plan.updates[id] = up
		}
		return up
	}
	for _, edge := range delta.Removed {
		at(edge.U).drop = append(at(edge.U).drop, edge.V)
		at(edge.V).drop = append(at(edge.V).drop, edge.U)
	}
	for _, edge := range delta.Added {
		at(edge.U).add = append(at(edge.U).add, edge.V)
		at(edge.V).add = append(at(edge.V).add, edge.U)
	}
	return plan
}

// runProtocol drives synchronous rounds until no messages remain in flight:
// deliver every pending message to its alive recipient, in ascending
// recipient order and, per recipient, in send order, and collect the replies
// as the next round's traffic. Returns the rounds executed and messages
// delivered.
func (e *Engine) runProtocol(pending []message) (rounds, msgs int) {
	for len(pending) > 0 {
		slices.SortStableFunc(pending, func(a, b message) int { return cmp.Compare(a.to, b.to) })
		var next []message
		delivered := 0
		for _, m := range pending {
			nd, alive := e.nodes[m.to]
			if !alive {
				continue // recipient died; the transport drops the message
			}
			next = append(next, nd.handle(e, m)...)
			delivered++
		}
		if delivered == 0 {
			break
		}
		pending = next
		rounds++
		msgs += delivered
	}
	return rounds, msgs
}

// ValidateLocalViews checks the protocol's decisive conformance property:
// the neighbor set every alive node believes it has — built purely from the
// messages it received — must be exactly its neighbor set in the healed
// graph. It returns nil when every view agrees.
func (e *Engine) ValidateLocalViews() error {
	if e.closed {
		return ErrClosed
	}
	g := e.st.Graph()
	alive := g.Nodes()
	if len(e.nodes) != len(alive) {
		return fmt.Errorf("dist: %d protocol nodes for %d alive nodes", len(e.nodes), len(alive))
	}
	for _, id := range alive {
		if err := e.validateLocalView(g, id); err != nil {
			return err
		}
	}
	return nil
}

// validateLocalView checks one node's message-built local view against the
// healed graph (the per-node body of ValidateLocalViews).
func (e *Engine) validateLocalView(g *graph.Graph, id graph.NodeID) error {
	nd, ok := e.nodes[id]
	if !ok {
		return fmt.Errorf("dist: alive node %d has no protocol node", id)
	}
	if nbrs := g.Neighbors(id); !slices.Equal(nd.view, nbrs) {
		return fmt.Errorf("dist: node %d local view %v differs from its healed-graph neighbors %v",
			id, nd.view, nbrs)
	}
	return nil
}

// Close releases the protocol nodes. It is optional: the engine holds no
// goroutines or other resources. Idempotent; mutating calls after Close
// return ErrClosed.
func (e *Engine) Close() {
	e.closed = true
	e.nodes = nil
}
