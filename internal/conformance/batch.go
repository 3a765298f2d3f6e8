package conformance

import (
	"fmt"
	"math"

	"github.com/xheal/xheal"
	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/core"
	"github.com/xheal/xheal/internal/dist"
	"github.com/xheal/xheal/internal/graph"
)

// Batched timesteps are the serving daemon's native unit (internal/server
// coalesces concurrent submissions into one core.Batch per tick), so the
// differential engine checks them too: RunBatched drives the centralized
// reference and the distributed protocol engine through the *same* batch
// schedule in lockstep and asserts, after every timestep, the same
// properties the per-event runner checks.

// BatchFailure is a conformance violation during a batched lockstep run.
type BatchFailure struct {
	// Timestep is the 1-based index of the failing batch.
	Timestep int
	// Kind is one of the Kind* constants.
	Kind string
	// Err describes the violation.
	Err error
}

func (f *BatchFailure) Error() string {
	return fmt.Sprintf("conformance: timestep %d: %s: %v", f.Timestep, f.Kind, f.Err)
}

func (f *BatchFailure) Unwrap() error { return f.Err }

// RunBatched applies every batch to both engines in lockstep over copies of
// g0. After each timestep it asserts graph identity, the structural
// invariants, local-view consistency, connectivity, and the per-deletion
// ledger bounds (Lemma 5 floor, wound broadcast minimum, Theorem 5 round
// budget); at the end it runs the Theorem 2 metric checkpoint. Both engines
// must agree on acceptance: a batch only one engine rejects is itself a
// divergence.
func RunBatched(g0 *graph.Graph, batches []core.Batch, opts Options) error {
	net, err := xheal.NewNetwork(g0, xheal.WithKappa(opts.Kappa), xheal.WithSeed(opts.Seed))
	if err != nil {
		return fmt.Errorf("conformance: centralized engine: %w", err)
	}
	eng, err := dist.NewEngine(dist.Config{Kappa: opts.Kappa, Seed: opts.Seed}, g0)
	if err != nil {
		return fmt.Errorf("conformance: distributed engine: %w", err)
	}

	rs := &runState{opts: opts, net: net, eng: eng, res: &Result{}, maxAlive: g0.NumNodes()}
	for i, b := range batches {
		fail := func(kind string, err error) *BatchFailure {
			return &BatchFailure{Timestep: i + 1, Kind: kind, Err: err}
		}
		costsBefore := eng.Totals().Deletions
		errNet := net.ApplyBatch(b)
		errEng := eng.ApplyBatch(b)
		if (errNet == nil) != (errEng == nil) {
			return fail(KindDivergence, fmt.Errorf(
				"acceptance split: centralized err=%v, distributed err=%v", errNet, errEng))
		}
		if errNet != nil {
			return fail(KindApply, fmt.Errorf("both engines rejected the batch: %w", errNet))
		}
		rs.res.Inserts += len(b.Insertions)
		rs.res.Deletions += len(b.Deletions)
		if n := net.Graph().NumNodes(); n > rs.maxAlive {
			rs.maxAlive = n
		}
		if err := diffGraphs(net.Graph(), eng.Graph()); err != nil {
			return fail(KindDivergence, err)
		}
		if err := net.CheckInvariants(); err != nil {
			return fail(KindInvariant, err)
		}
		if err := eng.ValidateLocalViews(); err != nil {
			return fail(KindViews, err)
		}
		if !net.Graph().IsConnected() {
			return fail(KindConnectivity, fmt.Errorf("healed graph disconnected (n=%d m=%d)",
				net.Graph().NumNodes(), net.Graph().NumEdges()))
		}
		if err := checkLedgers(eng, b, costsBefore); err != nil {
			return fail(KindLedger, err)
		}
	}
	if err := rs.checkMetrics(len(batches) + 1); err != nil {
		return &BatchFailure{Timestep: len(batches), Kind: KindMetrics, Err: err}
	}
	return nil
}

// checkLedgers verifies one timestep's distributed repair costs against the
// paper's per-repair bounds: every deletion must satisfy the Lemma 5 message
// floor (≥ black degree), the wound broadcast+convergecast minimum
// (≥ 2·wound−1), and the Theorem 5 round budget ⌊log₂ wound⌋+5.
func checkLedgers(eng *dist.Engine, b core.Batch, costsBefore int) error {
	costs := eng.Costs()
	if got, want := len(costs)-costsBefore, len(b.Deletions); got != want {
		return fmt.Errorf("distributed ledger grew by %d entries for %d deletions", got, want)
	}
	byNode := make(map[graph.NodeID]dist.DeletionCost, len(b.Deletions))
	for _, c := range costs[costsBefore:] {
		byNode[c.Node] = c
	}
	for _, v := range b.Deletions {
		c, ok := byNode[v]
		if !ok {
			return fmt.Errorf("no ledger entry for deletion %d", v)
		}
		if c.Messages < c.BlackDegree {
			return fmt.Errorf("delete %d: %d messages < black degree %d (Lemma 5 floor)",
				v, c.Messages, c.BlackDegree)
		}
		if c.Wound == 0 {
			if c.Rounds != 0 || c.Messages != 0 {
				return fmt.Errorf("delete of isolated %d cost %d rounds / %d messages, want none",
					v, c.Rounds, c.Messages)
			}
			continue
		}
		if minMsgs := 2*c.Wound - 1; c.Messages < minMsgs {
			return fmt.Errorf("delete %d: %d messages < %d (wound broadcast + convergecast over %d members)",
				v, c.Messages, minMsgs, c.Wound)
		}
		budget := int(math.Floor(math.Log2(float64(c.Wound)))) + 5
		if c.Rounds < 1 || c.Rounds > budget {
			return fmt.Errorf("delete %d: %d rounds outside [1, %d] for a %d-member wound (Theorem 5 round budget)",
				v, c.Rounds, budget, c.Wound)
		}
	}
	return nil
}

// ChunkSchedule groups a per-event schedule into batched timesteps of at
// most size events, starting a new batch early whenever the next event would
// conflict with the one being assembled (the same arrival-order rule the
// serving daemon's coalescer uses). The concatenation of the returned
// batches applies the events in their original order.
func ChunkSchedule(events []adversary.Event, size int) []core.Batch {
	if size < 1 {
		size = 1
	}
	var batches []core.Batch
	var cur core.Batch
	curEvents := 0
	inserted := make(map[graph.NodeID]bool)
	deleted := make(map[graph.NodeID]bool)
	attached := make(map[graph.NodeID]bool)
	flush := func() {
		if curEvents == 0 {
			return
		}
		batches = append(batches, cur)
		cur = core.Batch{}
		curEvents = 0
		clear(inserted)
		clear(deleted)
		clear(attached)
	}
	conflicts := func(ev adversary.Event) bool {
		switch ev.Kind {
		case adversary.Insert:
			if inserted[ev.Node] || deleted[ev.Node] {
				return true
			}
			for _, w := range ev.Neighbors {
				if deleted[w] {
					return true
				}
			}
		case adversary.Delete:
			// A batch deletes after inserting, so deleting a batch-inserted
			// node — or a node a batch insertion attaches to — in the same
			// timestep is a conflict, not an ordering.
			if inserted[ev.Node] || deleted[ev.Node] || attached[ev.Node] {
				return true
			}
		}
		return false
	}
	for _, ev := range events {
		// ApplyBatch applies all insertions before any deletion, so an
		// insert arriving after a delete must open a new timestep — otherwise
		// the concatenated application order would differ from the original.
		hoists := ev.Kind == adversary.Insert && len(cur.Deletions) > 0
		if curEvents >= size || conflicts(ev) || hoists {
			flush()
		}
		switch ev.Kind {
		case adversary.Insert:
			cur.Insertions = append(cur.Insertions, core.BatchInsertion{
				Node: ev.Node, Neighbors: ev.Neighbors,
			})
			inserted[ev.Node] = true
			for _, w := range ev.Neighbors {
				attached[w] = true
			}
		case adversary.Delete:
			cur.Deletions = append(cur.Deletions, ev.Node)
			deleted[ev.Node] = true
		}
		curEvents++
	}
	flush()
	return batches
}
