package benchcases

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/core"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/server"
	"github.com/xheal/xheal/internal/workload"
)

// churntServer builds a serving daemon over a churned n-node network.
func churntServer(b *testing.B, n int) *server.Server {
	b.Helper()
	g0, err := workload.RandomRegular(n, 3, rand.New(rand.NewSource(31)))
	if err != nil {
		b.Fatal(err)
	}
	st, err := core.NewState(core.Config{Kappa: 4, Seed: 32}, g0)
	if err != nil {
		b.Fatal(err)
	}
	s := server.New(st, server.Config{RefreshEvery: 8})
	anchors := append([]graph.NodeID(nil), g0.Nodes()...)
	stream := adversary.NewClientStream(0, anchors, 0.35, 3, 900)
	for i := 0; i < 64; i++ {
		if err := s.Submit(context.Background(), stream.Next()); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// HealthPoll measures one /v1/health snapshot on the incremental path: the
// tracker and caches answer without cloning the graph or running BFS.
func HealthPoll(b *testing.B) {
	s := churntServer(b, 2048)
	defer s.Close()
	// Let the refresher land once so polls exercise the steady state
	// (valid λ₂ + stretch caches), not the warm-up window.
	deadline := time.Now().Add(10 * time.Second)
	for {
		h := s.Health()
		if h.Live != nil && h.Live.Lambda2Valid && h.Live.StretchValid {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("live caches never became valid")
		}
		time.Sleep(time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := s.Health()
		if h.Nodes == 0 {
			b.Fatal("empty health snapshot")
		}
	}
}

// IngestArray measures one 64-event array POSTed to /v1/events — the
// batch-enqueue ingest path: one intake lock for the whole array, then one
// verdict await per event.
func IngestArray(b *testing.B) {
	const arrayLen = 64
	s := churntServer(b, 1024)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	// Steady-state arrays: each deletes the nodes the previous iteration
	// inserted and inserts fresh ones attached to long-lived anchors, so the
	// network neither grows without bound nor runs dry.
	anchors := s.Graph().Nodes()[:16]
	next := graph.NodeID(1 << 24)
	var prev []graph.NodeID
	makeBody := func() []byte {
		events := make([]server.IngestEvent, 0, arrayLen)
		for _, v := range prev {
			events = append(events, server.IngestEvent{Kind: "delete", Node: v})
		}
		prev = prev[:0]
		for len(events) < arrayLen {
			events = append(events, server.IngestEvent{
				Kind: "insert", Node: next,
				Neighbors: []graph.NodeID{anchors[int(next)%len(anchors)]},
			})
			prev = append(prev, next)
			next++
		}
		body, err := json.Marshal(events)
		if err != nil {
			b.Fatal(err)
		}
		return body
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/events", "application/json", bytes.NewReader(makeBody()))
		if err != nil {
			b.Fatal(err)
		}
		var r server.IngestResponse
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || r.Applied != arrayLen {
			b.Fatal(fmt.Errorf("status %d, applied %d/%d: %s", resp.StatusCode, r.Applied, arrayLen, r.Error))
		}
	}
	b.SetBytes(arrayLen) // events/sec via B/s
}
