package server

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/core"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/workload"
)

// TestLiveHealthIntegration drives the daemon with churn and checks the
// incremental health path end to end: Health serves from the tracker (Live
// section present), the λ₂ and stretch caches become valid once the refresher
// has run, periodic audits pass, and the final tracked values match the
// engine's graphs exactly.
func TestLiveHealthIntegration(t *testing.T) {
	g0, anchors := testTopology(t, 16)
	s, st := newSeqServer(t, g0, Config{
		Tick:         100 * time.Microsecond,
		RefreshEvery: 4,
		AuditEvery:   8,
	})
	stream := adversary.NewClientStream(0, anchors, 0.35, 3, 500)
	for i := 0; i < 120; i++ {
		if err := s.Submit(context.Background(), stream.Next()); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}

	// The refresher runs async; poll until both caches land or we time out.
	deadline := time.Now().Add(5 * time.Second)
	var h Health
	for {
		h = s.Health()
		if h.Live != nil && h.Live.Lambda2Valid && h.Live.StretchValid {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("caches never became valid: %+v", h.Live)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if h.Live.Lambda2Refreshes == 0 {
		t.Fatalf("no λ₂ refreshes recorded: %+v", h.Live)
	}
	if h.Snapshot.Lambda2 != h.Live.Lambda2 {
		t.Fatalf("snapshot λ₂ %v != live λ₂ %v", h.Snapshot.Lambda2, h.Live.Lambda2)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	h = s.Health()
	if h.Live == nil {
		t.Fatal("live section vanished after Close")
	}
	if h.Nodes != st.Graph().NumNodes() || h.Edges != st.Graph().NumEdges() {
		t.Fatalf("tracked n=%d m=%d, engine n=%d m=%d",
			h.Nodes, h.Edges, st.Graph().NumNodes(), st.Graph().NumEdges())
	}
	if h.Live.Audits == 0 || h.Live.AuditFailures != 0 {
		t.Fatalf("audit telemetry: %+v", h.Live)
	}
	if err := s.liveAuditError(); err != nil {
		t.Fatal(err)
	}
	if h.Connected != st.Graph().IsConnected() {
		t.Fatalf("tracked connectivity %v, graph %v", h.Connected, st.Graph().IsConnected())
	}
}

// TestRefreshIsPaidByChange pins the refresh rule: an opportunity (every
// RefreshEvery ticks) requests a refresh only once the structural change
// since the refresher's last copy has reached nodes + edges of the healed
// graph. A twin core.State applies the same events, so the test knows the
// change of every tick and the exact opportunity at which the rule fires.
func TestRefreshIsPaidByChange(t *testing.T) {
	const n, every = 500, 4
	genesis := func() *graph.Graph {
		g, err := workload.RandomRegular(n, 2, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	s, _ := newSeqServer(t, genesis(), Config{RefreshEvery: every})
	defer s.Close()
	twin, err := core.NewState(core.Config{Kappa: 4, Seed: 11}, genesis())
	if err != nil {
		t.Fatal(err)
	}
	size := func() uint64 { return uint64(twin.Graph().NumNodes() + twin.Graph().NumEdges()) }

	// The seeding refresh copies the genesis and restarts the counter.
	awaitLive(t, s, func(l *LiveHealth) bool {
		return l.Lambda2Refreshes == 1 && l.ChangesSinceRefresh == 0
	})

	rng := rand.New(rand.NewSource(6))
	var sum uint64
	for tick := 1; ; tick++ {
		nbrs := make([]graph.NodeID, 0, 4)
		for _, i := range rng.Perm(n)[:4] {
			nbrs = append(nbrs, graph.NodeID(i))
		}
		node := graph.NodeID(1000 + tick)
		delta, err := twin.ApplyBatchDelta(core.Batch{
			Insertions: []core.BatchInsertion{{Node: node, Neighbors: nbrs}},
		}, 1)
		if err != nil {
			t.Fatal(err)
		}
		sum += deltaSize(delta)
		ev := adversary.Event{Kind: adversary.Insert, Node: node, Neighbors: nbrs}
		if err := s.Submit(context.Background(), ev); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if tick%every == 0 && sum >= size() {
			if tick < 10*every {
				t.Fatalf("rule fired after %d ticks; want many opportunities below it first", tick)
			}
			t.Logf("due at tick %d: change %d ≥ n + m = %d", tick, sum, size())
			break
		}
		l := s.Health().Live
		if l.Lambda2Refreshes != 1 || l.ChangesSinceRefresh != sum || l.RefreshDueAtChanges != size() {
			t.Fatalf("tick %d, change %d of %d: refreshes %d, changes_since_refresh %d, due %d",
				tick, sum, size(), l.Lambda2Refreshes, l.ChangesSinceRefresh, l.RefreshDueAtChanges)
		}
	}

	// The opportunity that crossed the threshold requests exactly one refresh,
	// whose copy restarts the counter.
	l := awaitLive(t, s, func(l *LiveHealth) bool {
		if l.Lambda2Refreshes > 2 {
			t.Fatalf("%d refreshes after one due opportunity", l.Lambda2Refreshes)
		}
		return l.Lambda2Refreshes == 2 && l.ChangesSinceRefresh == 0
	})
	if l.RefreshDueAtChanges != size() {
		t.Fatalf("due at %d, want n + m = %d", l.RefreshDueAtChanges, size())
	}
}

// awaitLive polls Health until ok accepts its live section.
func awaitLive(t *testing.T, s *Server, ok func(*LiveHealth) bool) *LiveHealth {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l := s.Health().Live
		if ok(l) {
			return l
		}
		if time.Now().After(deadline) {
			t.Fatalf("live health never reached the expected state: %+v", l)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
