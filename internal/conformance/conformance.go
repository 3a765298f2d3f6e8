package conformance

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/xheal/xheal"
	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/dist"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/metrics"
	"github.com/xheal/xheal/internal/obs"
	"github.com/xheal/xheal/internal/spectral"
)

// Failure kinds, in the order the checks run.
const (
	KindApply        = "apply"        // an engine rejected an event
	KindDivergence   = "divergence"   // healed graphs differ
	KindInvariant    = "invariant"    // core.CheckInvariants failed
	KindViews        = "views"        // dist.ValidateLocalViews failed
	KindLedger       = "ledger"       // round/message ledger out of bounds
	KindConnectivity = "connectivity" // healed graph disconnected
	KindMetrics      = "metrics"      // Theorem 2 metric envelope violated
	KindFault        = "fault"        // injected fault fired (shrinker tests)
)

// DefaultStretchC is the stretch-envelope constant: measured stretch must
// stay below DefaultStretchC·log₂(n) (Theorem 2.2's O(log n), slightly more
// generous than the harness's plotting constant to keep the matrix free of
// estimator noise).
const DefaultStretchC = 6

// FaultFunc is an injected fault for exercising the shrinker: it runs after
// each applied event with the healed graph and fails the run when it returns
// an error.
type FaultFunc func(step int, ev adversary.Event, g *graph.Graph) error

// Options parameterizes a lockstep run.
type Options struct {
	// Kappa is the expander degree parameter κ; 0 selects the default.
	Kappa int
	// Seed seeds both engines' private randomness (they must share it: the
	// distributed engine is only graph-identical to the reference under equal
	// seeds) and the metric estimators.
	Seed int64
	// MetricsEvery runs the heavy metric checkpoint (spectral, stretch) every
	// that many applied events; 0 checks only the final state.
	MetricsEvery int
	// StretchC overrides the stretch-envelope constant; 0 = DefaultStretchC.
	StretchC float64
	// SkipInapplicable silently drops events the current state cannot accept
	// (deleting a dead node, inserting a used ID, attachments to dead nodes)
	// instead of failing. The shrinker and fuzzer set it: removing a prefix
	// event must not turn the rest of the schedule into apply errors.
	SkipInapplicable bool
	// Fault is an optional injected fault (see FaultFunc).
	Fault FaultFunc
	// Recorder, when set, traces the distributed engine's repairs as
	// per-wound spans (the centralized reference runs untraced — it is the
	// oracle, not the subject).
	Recorder *obs.Recorder
}

func (o Options) stretchC() float64 {
	if o.StretchC > 0 {
		return o.StretchC
	}
	return DefaultStretchC
}

// Result summarizes a lockstep run.
type Result struct {
	// Events are the events actually applied, in order; on failure the last
	// entry is the failing event, so Events is always a replayable repro of
	// everything the run did.
	Events []adversary.Event
	// Inserts and Deletions count the applied events by kind.
	Inserts   int
	Deletions int
	// Skipped counts events dropped by Options.SkipInapplicable.
	Skipped int
	// Totals is the distributed engine's protocol work ledger.
	Totals dist.Totals
	// MaxRounds is the largest single-repair round count observed.
	MaxRounds int
	// Final is the last metric checkpoint (always taken at the end).
	Final metrics.Snapshot
}

// Failure is a conformance violation, pinned to the event that triggered it.
type Failure struct {
	// Step is the 1-based index into Result.Events of the failing event; 0
	// marks failures of the final whole-run checks.
	Step int
	// Kind is one of the Kind* constants.
	Kind string
	// Event is the failing event (zero for final checks).
	Event adversary.Event
	// Err describes the violation.
	Err error
}

func (f *Failure) Error() string {
	if f.Step == 0 {
		return fmt.Sprintf("conformance: final %s check: %v", f.Kind, f.Err)
	}
	return fmt.Sprintf("conformance: step %d (%s %d): %s: %v",
		f.Step, f.Event.Kind, f.Event.Node, f.Kind, f.Err)
}

func (f *Failure) Unwrap() error { return f.Err }

// runState carries one lockstep run's live pieces between the per-event
// checks.
type runState struct {
	opts Options
	net  *xheal.Network
	eng  *dist.Engine

	res        *Result
	insertMsgs int // exact greeting messages, subtracted for Theorem 5
	maxAlive   int
}

// Run drives both engines through adv's schedule in lockstep over copies of
// g0 and checks conformance after every event. It returns the applied
// schedule and, when a check fails, a *Failure describing the first
// violation. Setup problems (bad κ, disconnected g0 for metrics) surface as
// ordinary errors.
func Run(g0 *graph.Graph, adv adversary.Adversary, opts Options) (*Result, error) {
	net, err := xheal.NewNetwork(g0, xheal.WithKappa(opts.Kappa), xheal.WithSeed(opts.Seed))
	if err != nil {
		return nil, fmt.Errorf("conformance: centralized engine: %w", err)
	}
	eng, err := dist.NewEngine(dist.Config{Kappa: opts.Kappa, Seed: opts.Seed}, g0)
	if err != nil {
		return nil, fmt.Errorf("conformance: distributed engine: %w", err)
	}
	defer eng.Close()
	if opts.Recorder != nil {
		eng.SetRecorder(opts.Recorder)
	}

	rs := &runState{
		opts:     opts,
		net:      net,
		eng:      eng,
		res:      &Result{},
		maxAlive: g0.NumNodes(),
	}
	for {
		ev, ok := adv.Next(net.Graph())
		if !ok {
			break
		}
		if opts.SkipInapplicable {
			ev, ok = rs.sanitize(ev)
			if !ok {
				rs.res.Skipped++
				continue
			}
		}
		rs.res.Events = append(rs.res.Events, ev)
		if fail := rs.applyAndCheck(ev); fail != nil {
			rs.res.Totals = eng.Totals()
			return rs.res, fail
		}
	}
	rs.res.Totals = eng.Totals()
	if fail := rs.finalChecks(g0); fail != nil {
		return rs.res, fail
	}
	return rs.res, nil
}

// sanitize rewrites ev into an applicable form, or reports it unusable.
// Deletions keep at least two nodes alive so the metric checks stay
// meaningful on shrunk sub-schedules.
func (rs *runState) sanitize(ev adversary.Event) (adversary.Event, bool) {
	g := rs.net.Graph()
	switch ev.Kind {
	case adversary.Delete:
		if !g.HasNode(ev.Node) || g.NumNodes() <= 2 {
			return ev, false
		}
		return ev, true
	case adversary.Insert:
		// G′ remembers deleted nodes, so it is the full used-ID set.
		if rs.net.Baseline().HasNode(ev.Node) {
			return ev, false
		}
		nbrs := make([]graph.NodeID, 0, len(ev.Neighbors))
		seen := make(map[graph.NodeID]struct{}, len(ev.Neighbors))
		for _, w := range ev.Neighbors {
			if w == ev.Node || !g.HasNode(w) {
				continue
			}
			if _, dup := seen[w]; dup {
				continue
			}
			seen[w] = struct{}{}
			nbrs = append(nbrs, w)
		}
		if len(nbrs) == 0 {
			return ev, false
		}
		ev.Neighbors = nbrs
		return ev, true
	}
	return ev, false
}

// applyAndCheck applies one event to both engines and runs every per-event
// check. The returned Failure (if any) is the first violation.
func (rs *runState) applyAndCheck(ev adversary.Event) *Failure {
	step := len(rs.res.Events)
	fail := func(kind string, err error) *Failure {
		return &Failure{Step: step, Kind: kind, Event: ev, Err: err}
	}

	before := rs.eng.Totals()
	var wound, expectBlack int
	switch ev.Kind {
	case adversary.Insert:
		if err := rs.net.Insert(ev.Node, ev.Neighbors); err != nil {
			return fail(KindApply, fmt.Errorf("centralized insert: %w", err))
		}
		if err := rs.eng.Insert(ev.Node, ev.Neighbors); err != nil {
			return fail(KindApply, fmt.Errorf("distributed insert (centralized accepted): %w", err))
		}
		rs.res.Inserts++
	case adversary.Delete:
		// Expected ledger terms, from the pre-deletion state.
		for _, w := range rs.eng.Graph().Neighbors(ev.Node) {
			wound++
			if black, ok := rs.eng.State().IsBlackEdge(ev.Node, w); ok && black {
				expectBlack++
			}
		}
		if err := rs.net.Delete(ev.Node); err != nil {
			return fail(KindApply, fmt.Errorf("centralized delete: %w", err))
		}
		if err := rs.eng.Delete(ev.Node); err != nil {
			return fail(KindApply, fmt.Errorf("distributed delete (centralized accepted): %w", err))
		}
		rs.res.Deletions++
	default:
		return fail(KindApply, fmt.Errorf("unknown event kind %d", int(ev.Kind)))
	}
	if n := rs.net.Graph().NumNodes(); n > rs.maxAlive {
		rs.maxAlive = n
	}

	if err := diffGraphs(rs.net.Graph(), rs.eng.Graph()); err != nil {
		return fail(KindDivergence, err)
	}
	if err := rs.net.CheckInvariants(); err != nil {
		return fail(KindInvariant, err)
	}
	if err := rs.eng.ValidateLocalViews(); err != nil {
		return fail(KindViews, err)
	}
	if err := rs.checkLedger(ev, before, wound, expectBlack); err != nil {
		return fail(KindLedger, err)
	}
	if !rs.net.Graph().IsConnected() {
		return fail(KindConnectivity,
			fmt.Errorf("healed graph disconnected (n=%d m=%d)",
				rs.net.Graph().NumNodes(), rs.net.Graph().NumEdges()))
	}
	if rs.opts.Fault != nil {
		if err := rs.opts.Fault(step, ev, rs.net.Graph()); err != nil {
			return fail(KindFault, err)
		}
	}
	if every := rs.opts.MetricsEvery; every > 0 && step%every == 0 {
		if err := rs.checkMetrics(step); err != nil {
			return fail(KindMetrics, err)
		}
	}
	return nil
}

// checkLedger verifies the protocol cost deltas one event produced against
// the structural bounds of the §5 protocol: insert greetings are exactly one
// round and one message per dialed neighbor; a repair must message at least
// the Lemma 5 floor and the wound broadcast+convergecast minimum, within the
// bracket-tree round budget ⌊log₂ wound⌋+5.
func (rs *runState) checkLedger(ev adversary.Event, before dist.Totals, wound, expectBlack int) error {
	after := rs.eng.Totals()
	dRounds := after.Rounds - before.Rounds
	dMsgs := after.Messages - before.Messages
	if ev.Kind == adversary.Insert {
		if dRounds != 1 || dMsgs != len(ev.Neighbors) {
			return fmt.Errorf("insert of %d: %d rounds / %d messages, want exactly 1 / %d",
				ev.Node, dRounds, dMsgs, len(ev.Neighbors))
		}
		rs.insertMsgs += dMsgs
		return nil
	}

	costs := rs.eng.Costs()
	if len(costs) != rs.res.Deletions {
		return fmt.Errorf("cost ledger holds %d entries after %d deletions", len(costs), rs.res.Deletions)
	}
	c := costs[len(costs)-1]
	if c.Node != ev.Node {
		return fmt.Errorf("last cost entry is for node %d, want %d", c.Node, ev.Node)
	}
	if c.BlackDegree != expectBlack {
		return fmt.Errorf("delete %d: ledger black degree %d, state says %d", ev.Node, c.BlackDegree, expectBlack)
	}
	if c.Wound != wound {
		return fmt.Errorf("delete %d: ledger wound %d, state says %d", ev.Node, c.Wound, wound)
	}
	if c.Rounds != dRounds || c.Messages != dMsgs {
		return fmt.Errorf("delete %d: totals moved by %d rounds / %d messages, ledger says %d / %d",
			ev.Node, dRounds, dMsgs, c.Rounds, c.Messages)
	}
	if c.Messages < c.BlackDegree {
		return fmt.Errorf("delete %d: %d messages < black degree %d (Lemma 5 floor)",
			ev.Node, c.Messages, c.BlackDegree)
	}
	if wound == 0 {
		if c.Rounds != 0 || c.Messages != 0 {
			return fmt.Errorf("delete of isolated %d cost %d rounds / %d messages, want none",
				ev.Node, c.Rounds, c.Messages)
		}
		return nil
	}
	if minMsgs := 2*wound - 1; c.Messages < minMsgs {
		return fmt.Errorf("delete %d: %d messages < %d (wound broadcast + convergecast over %d members)",
			ev.Node, c.Messages, minMsgs, wound)
	}
	budget := int(math.Floor(math.Log2(float64(wound)))) + 5
	if c.Rounds < 1 || c.Rounds > budget {
		return fmt.Errorf("delete %d: %d rounds outside [1, %d] for a %d-member wound (Theorem 5 round budget)",
			ev.Node, c.Rounds, budget, wound)
	}
	if c.Rounds > rs.res.MaxRounds {
		rs.res.MaxRounds = c.Rounds
	}
	return nil
}

// checkMetrics is the heavy checkpoint: Theorem 2's measurable guarantees on
// the current healed graph versus G′.
func (rs *runState) checkMetrics(step int) error {
	g := rs.net.Graph()
	snap := metrics.Measure(g, rs.net.Baseline(), metrics.Config{
		StretchSources: 8,
		Rng:            rand.New(rand.NewSource(rs.opts.Seed + int64(step))),
	})
	rs.res.Final = snap
	if !snap.Connected {
		return fmt.Errorf("disconnected at metric checkpoint")
	}
	if ratio, limit := snap.MaxDegreeRatio, metrics.DegreeBoundRatio(rs.net.Kappa()); ratio > limit {
		return fmt.Errorf("degree ratio %.2f exceeds Theorem 2.1 envelope %.2f", ratio, limit)
	}
	if env := metrics.StretchBound(g.NumNodes(), rs.opts.stretchC()); snap.MaxStretch > env {
		return fmt.Errorf("stretch %.2f exceeds Theorem 2.2 envelope %.2f (n=%d)",
			snap.MaxStretch, env, g.NumNodes())
	}
	if g.NumNodes() >= 2 && snap.Lambda2 <= 1e-9 {
		return fmt.Errorf("λ₂ = %g not positive on a connected graph", snap.Lambda2)
	}
	return nil
}

// finalChecks runs the whole-run assertions: the closing metric checkpoint,
// the Theorem 2.4 spectral floor (deletion-only schedules, where G′ stays
// g0), and the Theorem 5 amortized message envelope.
func (rs *runState) finalChecks(g0 *graph.Graph) *Failure {
	fail := func(kind string, err error) *Failure {
		return &Failure{Kind: kind, Err: err}
	}
	if err := rs.checkMetrics(len(rs.res.Events) + 1); err != nil {
		return fail(KindMetrics, err)
	}
	if rs.res.Inserts == 0 && rs.res.Deletions > 0 {
		rng := rand.New(rand.NewSource(rs.opts.Seed))
		floor := metrics.SpectralFloor(spectral.AlgebraicConnectivity(g0, rng),
			g0.MinDegree(), g0.MaxDegree(), rs.net.Kappa())
		if rs.res.Final.Lambda2 < floor {
			return fail(KindMetrics, fmt.Errorf("λ₂ = %g below Theorem 2.4 floor %g",
				rs.res.Final.Lambda2, floor))
		}
	}
	if rs.res.Deletions > 0 {
		amort := float64(rs.res.Totals.Messages-rs.insertMsgs) / float64(rs.res.Deletions)
		ap := math.Max(1, rs.eng.AmortizedLowerBound())
		envelope := 4 * float64(rs.net.Kappa()) * math.Log2(float64(rs.maxAlive)) * ap
		if amort > envelope {
			return fail(KindLedger, fmt.Errorf(
				"amortized %.1f messages/deletion exceeds Theorem 5 envelope %.1f (κ=%d, n≤%d, A(p)=%.1f)",
				amort, envelope, rs.net.Kappa(), rs.maxAlive, ap))
		}
	}
	return nil
}

// diffGraphs reports nil when g (centralized) and h (distributed) are
// identical, else an error naming the first discrepancy.
func diffGraphs(g, h *graph.Graph) error {
	if g.Equal(h) {
		return nil
	}
	for _, n := range g.Nodes() {
		if !h.HasNode(n) {
			return fmt.Errorf("node %d alive centrally, missing from distributed graph", n)
		}
	}
	for _, n := range h.Nodes() {
		if !g.HasNode(n) {
			return fmt.Errorf("node %d alive in distributed graph, missing centrally", n)
		}
	}
	for _, e := range g.Edges() {
		if !h.HasEdge(e.U, e.V) {
			return fmt.Errorf("edge %d-%d healed centrally, missing from distributed graph", e.U, e.V)
		}
	}
	for _, e := range h.Edges() {
		if !g.HasEdge(e.U, e.V) {
			return fmt.Errorf("edge %d-%d in distributed graph, missing centrally", e.U, e.V)
		}
	}
	return fmt.Errorf("graphs differ (n=%d/%d m=%d/%d)", g.NumNodes(), h.NumNodes(), g.NumEdges(), h.NumEdges())
}
