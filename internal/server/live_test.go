package server

import (
	"context"
	"testing"
	"time"

	"github.com/xheal/xheal/internal/adversary"
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
