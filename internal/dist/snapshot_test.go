package dist

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/workload"
)

// distEvent is one recorded adversarial action for replay across engines.
type distEvent struct {
	del  bool
	node graph.NodeID
	nbrs []graph.NodeID
}

// genDistSchedule records a random insert/delete schedule by driving a
// scratch engine, so the exact same event sequence can be applied to several
// engines.
func genDistSchedule(t *testing.T, cfg Config, g0 *graph.Graph, steps int, seed int64) []distEvent {
	t.Helper()
	e, err := NewEngine(cfg, g0.Clone())
	if err != nil {
		t.Fatalf("scratch engine: %v", err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(seed))
	next := graph.NodeID(300000)
	events := make([]distEvent, 0, steps)
	for step := 0; step < steps; step++ {
		alive := e.Graph().Nodes()
		var ev distEvent
		if len(alive) > 4 && rng.Float64() < 0.45 {
			ev = distEvent{del: true, node: alive[rng.Intn(len(alive))]}
			if err := e.Delete(ev.node); err != nil {
				t.Fatalf("schedule step %d delete: %v", step, err)
			}
		} else {
			k := 1 + rng.Intn(3)
			if k > len(alive) {
				k = len(alive)
			}
			nbrs := make([]graph.NodeID, 0, k)
			for _, i := range rng.Perm(len(alive))[:k] {
				nbrs = append(nbrs, alive[i])
			}
			ev = distEvent{node: next, nbrs: nbrs}
			next++
			if err := e.Insert(ev.node, ev.nbrs); err != nil {
				t.Fatalf("schedule step %d insert: %v", step, err)
			}
		}
		events = append(events, ev)
	}
	return events
}

func applyDistEvent(t *testing.T, e *Engine, ev distEvent) {
	t.Helper()
	var err error
	if ev.del {
		err = e.Delete(ev.node)
	} else {
		err = e.Insert(ev.node, ev.nbrs)
	}
	if err != nil {
		t.Fatalf("apply %+v: %v", ev, err)
	}
}

// TestEngineSnapshotRestoreIdentity is the distributed engine's
// recovery-identity property: for every crash point k, running k events,
// snapshotting through the binary wire form, restoring (which rebuilds each
// alive node's rank and view from the healed graph), and running the tail
// must be byte-indistinguishable from the uncrashed run.
func TestEngineSnapshotRestoreIdentity(t *testing.T) {
	cfg := Config{Kappa: 4, Seed: 21}
	g0, err := workload.RandomRegular(12, 2, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatalf("RandomRegular: %v", err)
	}
	const steps = 36
	events := genDistSchedule(t, cfg, g0, steps, 77)

	genesis, err := NewEngine(cfg, g0.Clone())
	if err != nil {
		t.Fatalf("genesis engine: %v", err)
	}
	defer genesis.Close()
	for _, ev := range events {
		applyDistEvent(t, genesis, ev)
	}
	want, err := genesis.SnapshotState()
	if err != nil {
		t.Fatalf("genesis snapshot: %v", err)
	}

	for k := 0; k <= steps; k += 6 {
		e, err := NewEngine(cfg, g0.Clone())
		if err != nil {
			t.Fatalf("crash point %d: engine: %v", k, err)
		}
		for _, ev := range events[:k] {
			applyDistEvent(t, e, ev)
		}
		data, err := e.SnapshotState()
		if err != nil {
			t.Fatalf("crash point %d: snapshot: %v", k, err)
		}
		e.Close()

		snap, err := LoadSnapshot(data)
		if err != nil {
			t.Fatalf("crash point %d: load: %v", k, err)
		}
		restored, err := RestoreEngine(snap)
		if err != nil {
			t.Fatalf("crash point %d: restore: %v", k, err)
		}
		// The restored engine must re-serialize byte-identically right away...
		again, err := restored.SnapshotState()
		if err != nil {
			t.Fatalf("crash point %d: re-snapshot: %v", k, err)
		}
		if !bytes.Equal(data, again) {
			restored.Close()
			t.Fatalf("crash point %d: restored snapshot differs from original", k)
		}
		// ...and behave bit-identically through the rest of the schedule.
		for _, ev := range events[k:] {
			applyDistEvent(t, restored, ev)
		}
		if err := restored.CheckInvariants(); err != nil {
			t.Fatalf("crash point %d: invariants after tail: %v", k, err)
		}
		if err := restored.ValidateLocalViews(); err != nil {
			t.Fatalf("crash point %d: local views after tail: %v", k, err)
		}
		got, err := restored.SnapshotState()
		if err != nil {
			t.Fatalf("crash point %d: final snapshot: %v", k, err)
		}
		if !bytes.Equal(want, got) {
			restored.Close()
			t.Fatalf("crash point %d: final state diverged from uncrashed run", k)
		}
		if !restored.Graph().Equal(genesis.Graph()) {
			restored.Close()
			t.Fatalf("crash point %d: healed graphs differ", k)
		}
		restored.Close()
	}
}

// TestRestoreEngineRejectsCorruptSnapshot spot-checks restore validation.
func TestRestoreEngineRejectsCorruptSnapshot(t *testing.T) {
	e := regularEngine(t, 10, 2, 4, 9)
	for _, ev := range genDistSchedule(t, Config{Kappa: 4, Seed: 9}, e.Graph().Clone(), 0, 1) {
		_ = ev
	}
	base := e.Snapshot()

	corrupt := *base
	corrupt.Version = 99
	if _, err := RestoreEngine(&corrupt); err == nil {
		t.Fatal("bad version accepted")
	}

	corrupt = *base
	corrupt.Ranks = base.Ranks[:len(base.Ranks)-1]
	if _, err := RestoreEngine(&corrupt); err == nil {
		t.Fatal("missing rank accepted")
	}

	corrupt = *base
	corrupt.Ranks = append([]NodeRank(nil), base.Ranks...)
	corrupt.Ranks[0].Node = 999999 // not alive
	if _, err := RestoreEngine(&corrupt); err == nil {
		t.Fatal("rank for non-alive node accepted")
	}

	corrupt = *base
	corrupt.Core = nil
	if _, err := RestoreEngine(&corrupt); err == nil {
		t.Fatal("nil core accepted")
	}
}
