package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/checkpoint"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/trace"
)

// Health, Counters and both HTTP read endpoints answer from the published
// copy: with the apply lock held for 200 ms — a checkpoint, the refresher's
// graph copy — each still answers in under 5 ms.
// Each read gets three tries so one scheduling hiccup is not a verdict; a
// read that waited for the lock would fail all three.
func TestReadsDoNotWaitForApplyLock(t *testing.T) {
	s, ts := startHTTP(t)
	if err := s.Submit(context.Background(), adversary.Event{
		Kind: adversary.Insert, Node: 100, Neighbors: []graph.NodeID{0}}); err != nil {
		t.Fatal(err)
	}
	get := func(path string) func() {
		return func() {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Errorf("GET %s: %v", path, err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s: status %d", path, resp.StatusCode)
			}
		}
	}
	reads := []struct {
		name string
		do   func()
	}{
		{"Health()", func() { _ = s.Health() }},
		{"Counters()", func() { _ = s.Counters() }},
		{"GET /v1/health", get("/v1/health")},
		{"GET /metrics", get("/metrics")},
	}
	for _, r := range reads {
		r.do() // connections open, code paths warm
	}

	const hold, limit = 200 * time.Millisecond, 5 * time.Millisecond
	s.mu.Lock()
	locked := time.Now()
	time.AfterFunc(hold, s.mu.Unlock)
	for _, r := range reads {
		best := time.Duration(1 << 62)
		for try := 0; try < 3 && best >= limit; try++ {
			t0 := time.Now()
			r.do()
			best = min(best, time.Since(t0))
		}
		if best >= limit {
			t.Errorf("%s took %v with the apply lock held, want < %v", r.name, best, limit)
		}
	}
	if held := time.Since(locked); held >= hold {
		t.Fatalf("the reads took %v in all: the lock (held %v) was released under them, nothing was shown", held, hold)
	}
	awaitTickEnd(s)
}

// Four pollers read everything there is to read while a writer drives a
// server that checkpoints at every tick; run under -race this is the check
// that the published copy is the only thing the two sides share. Each poller
// also holds the counters to monotonicity.
func TestPollersAgainstWritingServer(t *testing.T) {
	g0, _ := testTopology(t, 12)
	s, _ := newSeqServer(t, g0, Config{
		Checkpoints: checkpoint.NewMemStore(), CheckpointEvery: 1, AuditEvery: 4,
	})
	var stop atomic.Bool
	var pollers sync.WaitGroup
	for p := 0; p < 4; p++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			var last Counters
			for !stop.Load() {
				h := s.Health()
				c := s.Counters()
				_ = s.PrometheusText()
				if err := s.liveAuditError(); err != nil {
					t.Error(err)
					return
				}
				if h.Durability == nil || c.EventsApplied < last.EventsApplied || c.Ticks < last.Ticks || c.Checkpoints < last.Checkpoints {
					t.Errorf("counters went backwards: %+v after %+v", c, last)
					return
				}
				last = c
			}
		}()
	}
	ctx := context.Background()
	for i := 0; i < 300; i++ {
		node := graph.NodeID(1000 + i)
		if err := s.Submit(ctx, adversary.Event{Kind: adversary.Insert, Node: node, Neighbors: []graph.NodeID{graph.NodeID(i % 12)}}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if i%2 == 1 {
			if err := s.Submit(ctx, adversary.Event{Kind: adversary.Delete, Node: node}); err != nil {
				t.Fatalf("delete %d: %v", i, err)
			}
		}
	}
	stop.Store(true)
	pollers.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// Publish-before-ack: the moment Submit returns nil, Counters already counts
// the event — the benchmark's final health read, taken right after the last
// ack, depends on it, and so does every client that reads its own write.
func TestCountersIncludeAcknowledgedEvent(t *testing.T) {
	g0, _ := testTopology(t, 8)
	s, _ := newSeqServer(t, g0, Config{})
	defer s.Close()
	ctx := context.Background()
	const iterations = 10_000
	for i := 0; i < iterations; i += 2 {
		node := graph.NodeID(1000 + i)
		for j, ev := range []adversary.Event{
			{Kind: adversary.Insert, Node: node, Neighbors: []graph.NodeID{graph.NodeID(i % 8)}},
			{Kind: adversary.Delete, Node: node},
		} {
			if err := s.Submit(ctx, ev); err != nil {
				t.Fatalf("iteration %d: %v", i+j, err)
			}
			if got, want := s.Counters().EventsApplied, uint64(i+j+1); got != want {
				t.Fatalf("iteration %d: Counters().EventsApplied = %d right after the ack, want %d", i+j, got, want)
			}
		}
	}
	if h := s.Health(); h.Counters.Ticks != iterations {
		t.Fatalf("Health counts %d ticks after %d single-event submits", h.Counters.Ticks, iterations)
	}
}

// A rejection is a verdict like any other: the rejected client reads a
// counter that already includes its event.
func TestCountersIncludeRejectedEvent(t *testing.T) {
	g0, _ := testTopology(t, 8)
	s, _ := newSeqServer(t, g0, Config{})
	defer s.Close()
	for i := 1; i <= 200; i++ {
		if err := s.Submit(context.Background(), adversary.Event{Kind: adversary.Delete, Node: 999}); err == nil {
			t.Fatal("delete of a node that never existed was applied")
		}
		if got := s.Counters().EventsRejected; got != uint64(i) {
			t.Fatalf("rejection %d: Counters().EventsRejected = %d", i, got)
		}
	}
}

// A degraded daemon refuses at the door, counting the refusal in an atomic:
// neither the refusal nor its reason waits for the apply lock.
func TestDegradedRefusalDoesNotWaitForApplyLock(t *testing.T) {
	g0, _ := testTopology(t, 8)
	lw, err := trace.NewLogWriter(&failAfterWriter{n: 300}, g0)
	if err != nil {
		t.Fatalf("log writer: %v", err)
	}
	s, _ := newSeqServer(t, g0, Config{Log: lw})
	defer s.Close()
	ctx := context.Background()
	refused := uint64(0)
	for i := 0; refused == 0; i++ {
		if i == 50 {
			t.Fatal("the log never failed")
		}
		err := s.Submit(ctx, adversary.Event{Kind: adversary.Insert, Node: graph.NodeID(100 + i), Neighbors: []graph.NodeID{0}})
		if errors.Is(err, ErrNotDurable) {
			refused++
		} else if err != nil {
			t.Fatal(err)
		}
	}

	const hold, limit = 200 * time.Millisecond, 5 * time.Millisecond
	s.mu.Lock()
	time.AfterFunc(hold, s.mu.Unlock)
	best := time.Duration(1 << 62)
	for try := 0; try < 3 && best >= limit; try++ {
		t0 := time.Now()
		err := s.Submit(ctx, adversary.Event{Kind: adversary.Insert, Node: graph.NodeID(900 + try), Neighbors: []graph.NodeID{0}})
		best = min(best, time.Since(t0))
		if !errors.Is(err, ErrNotDurable) || !strings.Contains(err.Error(), "disk full") {
			t.Fatalf("Submit on a degraded daemon = %v, want ErrNotDurable naming the log failure", err)
		}
		refused++
	}
	if best >= limit {
		t.Errorf("the refusal took %v with the apply lock held, want < %v", best, limit)
	}
	if got := s.Counters().EventsNotDurable; got != refused {
		t.Errorf("EventsNotDurable = %d, want %d", got, refused)
	}
	awaitTickEnd(s)
}
