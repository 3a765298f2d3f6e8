package conformance

import (
	"testing"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/core"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/workload"
)

// TestBatchedMatrix exercises batched timesteps on both engines: each
// sampled matrix cell's applied schedule is chunked into multi-event batches
// and replayed through RunBatched, which asserts graph identity, invariants,
// local views, and connectivity after every timestep on both engines.
func TestBatchedMatrix(t *testing.T) {
	for _, wl := range []string{workload.NameStar, workload.NameRegular, workload.NamePowerLaw} {
		c := Cell{Workload: wl, Adversary: adversary.NameChurn, N: 32, Steps: 30, Seed: 2100}
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			g0, adv, err := c.Build()
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			opts := Options{Kappa: 4, Seed: c.Seed}
			res, err := Run(g0, adv, opts)
			if err != nil {
				t.Fatalf("per-event lockstep run: %v", err)
			}
			batches := ChunkSchedule(res.Events, 5)
			if len(batches) < 2 {
				t.Fatalf("schedule too tame: %d batches from %d events", len(batches), len(res.Events))
			}
			multi := 0
			for _, b := range batches {
				if len(b.Insertions)+len(b.Deletions) > 1 {
					multi++
				}
			}
			if multi == 0 {
				t.Fatal("no multi-event batch — the test is not exercising batching")
			}
			if err := RunBatched(g0, batches, opts); err != nil {
				t.Fatalf("batched lockstep: %v", err)
			}
		})
	}
}

// ChunkSchedule preserves application order: replaying the batches through a
// fresh reference state lands on the same graph as replaying the events one
// at a time under the same seed.
func TestChunkSchedulePreservesOrder(t *testing.T) {
	c := Cell{Workload: workload.NameErdosRenyi, Adversary: adversary.NameChurn, N: 32, Steps: 40, Seed: 77}
	g0, adv, err := c.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	res, err := Run(g0, adv, Options{Kappa: 4, Seed: c.Seed})
	if err != nil {
		t.Fatalf("per-event lockstep run: %v", err)
	}

	perEvent, err := core.NewState(core.Config{Kappa: 4, Seed: c.Seed}, g0)
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	for i, ev := range res.Events {
		switch ev.Kind {
		case adversary.Insert:
			err = perEvent.InsertNode(ev.Node, ev.Neighbors)
		case adversary.Delete:
			err = perEvent.DeleteNode(ev.Node)
		}
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}

	batched, err := core.NewState(core.Config{Kappa: 4, Seed: c.Seed}, g0)
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	for i, b := range ChunkSchedule(res.Events, 6) {
		if err := batched.ApplyBatch(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}

	if !batched.Graph().Equal(perEvent.Graph()) {
		t.Fatalf("batched application diverged from per-event application: n=%d/%d m=%d/%d",
			batched.Graph().NumNodes(), perEvent.Graph().NumNodes(),
			batched.Graph().NumEdges(), perEvent.Graph().NumEdges())
	}
}

// ChunkSchedule splits on intra-batch conflicts and on inserts that would be
// hoisted over an earlier delete.
func TestChunkScheduleSplits(t *testing.T) {
	ins := func(n graph.NodeID, nbrs ...graph.NodeID) adversary.Event {
		return adversary.Event{Kind: adversary.Insert, Node: n, Neighbors: nbrs}
	}
	del := func(n graph.NodeID) adversary.Event {
		return adversary.Event{Kind: adversary.Delete, Node: n}
	}
	cases := []struct {
		name   string
		events []adversary.Event
		want   int // batches
	}{
		{"insert-then-delete-same-node", []adversary.Event{ins(9, 1), del(9)}, 2},
		{"insert-after-delete-hoist", []adversary.Event{del(3), ins(9, 1)}, 2},
		{"attach-to-batch-deleted", []adversary.Event{del(3), del(4), ins(9, 3)}, 2},
		{"delete-attached-neighbor", []adversary.Event{ins(9, 1, 2), del(1)}, 2},
		{"double-delete", []adversary.Event{del(3), del(3)}, 2},
		{"compatible-run", []adversary.Event{ins(9, 1), ins(10, 9), del(3)}, 1},
		{"size-cap", []adversary.Event{del(1), del(2), del(3)}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			size := 5
			if tc.name == "size-cap" {
				size = 2
			}
			got := ChunkSchedule(tc.events, size)
			if len(got) != tc.want {
				t.Fatalf("ChunkSchedule produced %d batches, want %d: %+v", len(got), tc.want, got)
			}
			total := 0
			for _, b := range got {
				total += len(b.Insertions) + len(b.Deletions)
			}
			if total != len(tc.events) {
				t.Fatalf("batches hold %d events, want %d", total, len(tc.events))
			}
		})
	}
}
