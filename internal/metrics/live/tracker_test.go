package live

import (
	"math/rand"
	"testing"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/core"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/metrics"
	"github.com/xheal/xheal/internal/workload"
)

// checkAgainstOracle compares every tracked value against the full
// recomputation after one applied tick.
func checkAgainstOracle(t *testing.T, tr *Tracker, g, gp *graph.Graph, tick int) {
	t.Helper()
	v := tr.Values()
	if v.Nodes != g.NumNodes() {
		t.Fatalf("tick %d: tracker nodes %d, graph %d", tick, v.Nodes, g.NumNodes())
	}
	if v.Edges != g.NumEdges() {
		t.Fatalf("tick %d: tracker edges %d, graph %d", tick, v.Edges, g.NumEdges())
	}
	if v.MaxDegree != g.MaxDegree() {
		t.Fatalf("tick %d: tracker max degree %d, graph %d", tick, v.MaxDegree, g.MaxDegree())
	}
	if want := metrics.DegreeRatio(g, gp); v.MaxDegreeRatio != want {
		t.Fatalf("tick %d: tracker degree ratio %v, metrics.DegreeRatio %v", tick, v.MaxDegreeRatio, want)
	}
	if v.ConnectivityAgeTicks == 0 && v.Connected != g.IsConnected() {
		t.Fatalf("tick %d: tracker claims connectivity %v is current, graph says %v",
			tick, v.Connected, g.IsConnected())
	}
}

// checkAgainstMeasure ties the tracker to the full metrics.Measure pass the
// slow health path runs.
func checkAgainstMeasure(t *testing.T, tr *Tracker, g, gp *graph.Graph, tick int) {
	t.Helper()
	snap := metrics.Measure(g.Clone(), gp.Clone(), metrics.Config{
		SkipSpectral:   true,
		StretchSources: 1,
		Rng:            rand.New(rand.NewSource(7)),
	})
	v := tr.Values()
	if v.Nodes != snap.Nodes || v.Edges != snap.Edges ||
		v.MaxDegree != snap.MaxDegree || v.MaxDegreeRatio != snap.MaxDegreeRatio {
		t.Fatalf("tick %d: tracker %+v diverges from Measure %+v", tick, v, snap)
	}
	if v.ConnectivityAgeTicks == 0 && v.Connected != snap.Connected {
		t.Fatalf("tick %d: tracker connectivity %v (current), Measure %v", tick, v.Connected, snap.Connected)
	}
}

// TestTrackerMatchesMeasure drives every registered adversary against the
// sequential engine, feeding each tick's delta to the tracker, and checks
// every tracked value against the full recomputation after every tick.
func TestTrackerMatchesMeasure(t *testing.T) {
	for _, name := range adversary.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g0, err := workload.RandomRegular(48, 2, rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatal(err)
			}
			st, err := core.NewState(core.Config{Kappa: 4, Seed: 11}, g0)
			if err != nil {
				t.Fatal(err)
			}
			adv, err := adversary.ByName(name, 160, 23)
			if err != nil {
				t.Fatal(err)
			}
			tr := NewTracker(st.Graph(), st.Baseline())
			tick := 0
			for {
				ev, ok := adv.Next(st.Graph())
				if !ok {
					break
				}
				var b core.Batch
				switch ev.Kind {
				case adversary.Delete:
					if !st.Graph().HasNode(ev.Node) || st.Graph().NumNodes() <= 3 {
						continue
					}
					b.Deletions = []graph.NodeID{ev.Node}
				case adversary.Insert:
					if st.Baseline().HasNode(ev.Node) || len(ev.Neighbors) == 0 {
						continue
					}
					b.Insertions = []core.BatchInsertion{{Node: ev.Node, Neighbors: ev.Neighbors}}
				}
				if err := st.ValidateBatch(b); err != nil {
					continue
				}
				d, err := st.ApplyBatchDelta(b, 1)
				if err != nil {
					t.Fatalf("tick %d: apply: %v", tick, err)
				}
				tr.Apply(d)
				tick++
				checkAgainstOracle(t, tr, st.Graph(), st.Baseline(), tick)
				if tick%16 == 0 {
					checkAgainstMeasure(t, tr, st.Graph(), st.Baseline(), tick)
					if err := tr.Audit(st.Graph(), st.Baseline()); err != nil {
						t.Fatalf("tick %d: %v", tick, err)
					}
				}
			}
			if tick < 32 {
				t.Fatalf("schedule too short to be meaningful: %d applied ticks", tick)
			}
			if err := tr.Audit(st.Graph(), st.Baseline()); err != nil {
				t.Fatal(err)
			}
			v := tr.Values()
			if v.Audits == 0 || v.AuditFailures != 0 {
				t.Fatalf("audit telemetry: %+v", v)
			}
		})
	}
}

// TestTrackerMultiEventBatches assembles batches of up to eight events and
// asserts the tracker, fed one TickDelta per batch, matches the oracle after
// every batch: a batch's delta must net the changes of all its repairs.
func TestTrackerMultiEventBatches(t *testing.T) {
	g0, err := workload.RandomRegular(64, 2, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.NewState(core.Config{Kappa: 4, Seed: 3}, g0)
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.NewRandomChurn(400, 0.5, 3, 77)
	tr := NewTracker(st.Graph(), st.Baseline())

	var batch core.Batch
	events := 0
	tick := 0
	flush := func() {
		if len(batch.Insertions) == 0 && len(batch.Deletions) == 0 {
			return
		}
		d, err := st.ApplyBatchDelta(batch, 1)
		if err != nil {
			t.Fatalf("tick %d: apply: %v", tick, err)
		}
		tr.Apply(d)
		tick++
		checkAgainstOracle(t, tr, st.Graph(), st.Baseline(), tick)
		batch = core.Batch{}
	}
	for {
		ev, ok := adv.Next(st.Graph())
		if !ok {
			break
		}
		cand := batch
		switch ev.Kind {
		case adversary.Delete:
			if !st.Graph().HasNode(ev.Node) ||
				st.Graph().NumNodes()+len(batch.Insertions)-len(batch.Deletions) <= 4 {
				continue
			}
			cand.Deletions = append(append([]graph.NodeID(nil), batch.Deletions...), ev.Node)
			cand.Insertions = batch.Insertions
		case adversary.Insert:
			if st.Baseline().HasNode(ev.Node) || len(ev.Neighbors) == 0 {
				continue
			}
			cand.Insertions = append(append([]core.BatchInsertion(nil), batch.Insertions...),
				core.BatchInsertion{Node: ev.Node, Neighbors: ev.Neighbors})
			cand.Deletions = batch.Deletions
		}
		if err := st.ValidateBatch(cand); err != nil {
			flush() // conflicts with this batch; start the next one with it
			continue
		}
		batch = cand
		events++
		if len(batch.Insertions)+len(batch.Deletions) >= 8 {
			flush()
		}
	}
	flush()
	if tick < 20 {
		t.Fatalf("too few applied batches: %d", tick)
	}
	if err := tr.Audit(st.Graph(), st.Baseline()); err != nil {
		t.Fatal(err)
	}
}

// TestTrackerConnectivityDirtying checks the dirty-flag rule directly:
// growth ticks on a connected graph keep the verdict current; a removal
// stales it until resolved.
func TestTrackerConnectivityDirtying(t *testing.T) {
	g0, err := workload.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.NewState(core.Config{Kappa: 4, Seed: 1}, g0)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(st.Graph(), st.Baseline())

	d, err := st.ApplyBatchDelta(core.Batch{
		Insertions: []core.BatchInsertion{{Node: 100, Neighbors: []graph.NodeID{0, 1}}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr.Apply(d)
	if v := tr.Values(); v.ConnectivityAgeTicks != 0 || !v.Connected {
		t.Fatalf("pure growth staled connectivity: %+v", v)
	}

	d, err = st.ApplyBatchDelta(core.Batch{Deletions: []graph.NodeID{3}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr.Apply(d)
	if v := tr.Values(); v.ConnectivityAgeTicks == 0 {
		t.Fatalf("removal tick did not stale connectivity: %+v", v)
	}

	// A traversal as of the current tick resolves it.
	tr.ResolveConnectivity(st.Graph().IsConnected(), tr.Values().Ticks)
	if v := tr.Values(); v.ConnectivityAgeTicks != 0 {
		t.Fatalf("resolve did not clear staleness: %+v", v)
	}
}
