package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"github.com/xheal/xheal/internal/graph"
)

// testEvent is one recorded adversarial action for replay across engines.
type testEvent struct {
	del  bool
	node graph.NodeID
	nbrs []graph.NodeID
}

// genSchedule records a random insert/delete schedule by driving a scratch
// state, so the same exact event sequence can be applied to several engines.
func genSchedule(t *testing.T, cfg Config, g0 *graph.Graph, steps int, seed int64) []testEvent {
	t.Helper()
	s := mustState(t, cfg, g0)
	rng := rand.New(rand.NewSource(seed))
	next := graph.NodeID(200000)
	events := make([]testEvent, 0, steps)
	for step := 0; step < steps; step++ {
		alive := s.AliveNodes()
		var ev testEvent
		if len(alive) > 4 && rng.Float64() < 0.45 {
			ev = testEvent{del: true, node: alive[rng.Intn(len(alive))]}
			if err := s.DeleteNode(ev.node); err != nil {
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
			ev = testEvent{node: next, nbrs: nbrs}
			next++
			if err := s.InsertNode(ev.node, ev.nbrs); err != nil {
				t.Fatalf("schedule step %d insert: %v", step, err)
			}
		}
		events = append(events, ev)
	}
	return events
}

func applyEvent(t *testing.T, s *State, ev testEvent) {
	t.Helper()
	var err error
	if ev.del {
		err = s.DeleteNode(ev.node)
	} else {
		err = s.InsertNode(ev.node, ev.nbrs)
	}
	if err != nil {
		t.Fatalf("apply %+v: %v", ev, err)
	}
}

// TestSnapshotRestoreIdentity is the sequential engine's recovery-identity
// property: for every crash point k, running k events, snapshotting through
// the binary wire form, restoring, and running the tail must be
// indistinguishable from the uncrashed run — asserted in the strongest form
// available, byte-identical final snapshots (which cover the graphs, every
// cloud wiring, membership maps, counters, and the rng stream position).
func TestSnapshotRestoreIdentity(t *testing.T) {
	cfg := Config{Kappa: 4, Seed: 33}
	g0 := cycle(14)
	const steps = 60
	events := genSchedule(t, cfg, g0, steps, 91)

	genesis := mustState(t, cfg, g0)
	for _, ev := range events {
		applyEvent(t, genesis, ev)
	}
	want, err := genesis.SnapshotState()
	if err != nil {
		t.Fatalf("genesis snapshot: %v", err)
	}

	for k := 0; k <= steps; k += 7 {
		s := mustState(t, cfg, g0)
		for _, ev := range events[:k] {
			applyEvent(t, s, ev)
		}
		data, err := s.SnapshotState()
		if err != nil {
			t.Fatalf("crash point %d: snapshot: %v", k, err)
		}
		snap, err := LoadSnapshot(data)
		if err != nil {
			t.Fatalf("crash point %d: load: %v", k, err)
		}
		restored, err := RestoreState(snap)
		if err != nil {
			t.Fatalf("crash point %d: restore: %v", k, err)
		}
		// The restored state must re-serialize byte-identically right away...
		again, err := restored.SnapshotState()
		if err != nil {
			t.Fatalf("crash point %d: re-snapshot: %v", k, err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("crash point %d: restored snapshot differs from original", k)
		}
		// ...and behave bit-identically through the rest of the schedule.
		for _, ev := range events[k:] {
			applyEvent(t, restored, ev)
		}
		if err := restored.CheckInvariants(); err != nil {
			t.Fatalf("crash point %d: invariants after tail: %v", k, err)
		}
		got, err := restored.SnapshotState()
		if err != nil {
			t.Fatalf("crash point %d: final snapshot: %v", k, err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("crash point %d: final state diverged from uncrashed run", k)
		}
		if !restored.Graph().Equal(genesis.Graph()) {
			t.Fatalf("crash point %d: healed graphs differ", k)
		}
	}
}

// TestRestoreRejectsCorruptSnapshot spot-checks that restore validates.
func TestRestoreRejectsCorruptSnapshot(t *testing.T) {
	s := mustState(t, Config{Kappa: 4, Seed: 5}, cycle(12))
	for _, ev := range genSchedule(t, Config{Kappa: 4, Seed: 5}, cycle(12), 20, 7) {
		applyEvent(t, s, ev)
	}
	base := s.Snapshot()

	corrupt := *base
	corrupt.Version = 99
	if _, err := RestoreState(&corrupt); err == nil {
		t.Fatal("bad version accepted")
	}

	corrupt = *base
	corrupt.Kappa = 3
	if _, err := RestoreState(&corrupt); err == nil {
		t.Fatal("odd kappa accepted")
	}

	if len(base.Clouds) > 0 {
		corrupt = *base
		corrupt.Clouds = base.Clouds[:len(base.Clouds)-1]
		if _, err := RestoreState(&corrupt); err == nil {
			t.Fatal("dropped cloud accepted (claims now dangle)")
		}
	}

	data, err := s.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut += 1 + len(data)/97 {
		if _, err := LoadSnapshot(data[:cut]); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("snapshot truncated to %d of %d bytes: %v, want ErrBadSnapshot", cut, len(data), err)
		}
	}
	if _, err := LoadSnapshot(append(data[:len(data):len(data)], 0)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("snapshot with a trailing byte: %v, want ErrBadSnapshot", err)
	}
	// A version-1 snapshot was JSON: its first byte reads as version 123.
	if _, err := LoadSnapshot([]byte(`{"version":1,"kappa":4}`)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("version-1 JSON snapshot: %v, want ErrBadSnapshot", err)
	}
}

// TestCountedSourceMatchesDefault pins the stream-identity contract: a
// counted source must produce exactly math/rand's default sequence, and
// Skip(n) must land on the same position as n live draws.
func TestCountedSourceMatchesDefault(t *testing.T) {
	want := rand.New(rand.NewSource(42))
	src := NewCountedSource(42)
	got := rand.New(src)
	for i := 0; i < 1000; i++ {
		if w, g := want.Int63(), got.Int63(); w != g {
			t.Fatalf("draw %d: %d != %d", i, g, w)
		}
	}
	if src.Draws() != 1000 {
		t.Fatalf("draws=%d want 1000", src.Draws())
	}
	skipped := NewCountedSource(42)
	skipped.Skip(1000)
	if skipped.Draws() != 1000 {
		t.Fatalf("skipped draws=%d want 1000", skipped.Draws())
	}
	a, b := rand.New(src), rand.New(skipped)
	for i := 0; i < 100; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("post-skip draw %d: %d != %d", i, x, y)
		}
	}
}
