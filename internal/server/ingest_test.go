package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/graph"
)

// orderLog records the order events were applied in. Append runs on the tick
// loop only; the test reads after Close.
type orderLog struct{ nodes []graph.NodeID }

func (l *orderLog) Append(ev adversary.Event) error {
	l.nodes = append(l.nodes, ev.Node)
	return nil
}

func (l *orderLog) Close() error { return nil }

// TestIntakeOrderingContract pins what the tick loop relies on from the
// intake, with real parallelism: many goroutines enqueue arrays concurrently,
// and in the applied order every array is contiguous and in its own order,
// and an array whose enqueue returned before another's began is applied
// first.
func TestIntakeOrderingContract(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	const writers, rounds, arrayLen = 8, 40, 8
	g0, anchors := testTopology(t, 12)
	applied := &orderLog{}
	s, _ := newSeqServer(t, g0, Config{Tick: 100 * time.Microsecond, QueueDepth: writers * arrayLen, Log: applied})

	// start/end bracket each array's enqueue on one logical clock.
	type span struct{ start, end int64 }
	var clock atomic.Int64
	spans := make([]span, writers*rounds)
	first := func(array int) graph.NodeID { return graph.NodeID(1<<20 + array*arrayLen) }

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				array := w*rounds + r
				subs := make([]*submission, arrayLen)
				for i := range subs {
					subs[i] = &submission{
						ev: adversary.Event{Kind: adversary.Insert, Node: first(array) + graph.NodeID(i),
							Neighbors: anchors[w%len(anchors) : w%len(anchors)+1]},
						done: make(chan error, 1),
						at:   time.Now(),
					}
				}
				spans[array].start = clock.Add(1)
				n, err := s.submitMany(subs)
				spans[array].end = clock.Add(1)
				if err != nil || n != arrayLen {
					t.Errorf("writer %d round %d: accepted %d of %d: %v", w, r, n, arrayLen, err)
					return
				}
				for i, sub := range subs {
					if err := <-sub.done; err != nil {
						t.Errorf("writer %d round %d event %d: %v", w, r, i, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if t.Failed() {
		return
	}

	if got, want := len(applied.nodes), writers*rounds*arrayLen; got != want {
		t.Fatalf("applied %d events, want %d", got, want)
	}
	pos := make([]int, writers*rounds) // applied index of each array's first event
	for at := 0; at < len(applied.nodes); at += arrayLen {
		array := int(applied.nodes[at]-first(0)) / arrayLen
		pos[array] = at
		for i := 0; i < arrayLen; i++ {
			if want := first(array) + graph.NodeID(i); applied.nodes[at+i] != want {
				t.Fatalf("applied[%d] = node %d, want %d: array %d was split or reordered",
					at+i, applied.nodes[at+i], want, array)
			}
		}
	}
	ordered := 0
	for a := range spans {
		for b := range spans {
			if spans[a].end < spans[b].start {
				ordered++
				if pos[a] > pos[b] {
					t.Fatalf("array %d finished enqueueing (t=%d) before array %d began (t=%d) but was applied after it (%d > %d)",
						a, spans[a].end, b, spans[b].start, pos[a], pos[b])
				}
			}
		}
	}
	if ordered == 0 {
		t.Fatal("no completed-before-started pair observed: the test is not exercising the ordering contract")
	}
}

// TestIntakeFullQueueAcceptsPrefix: an array that does not fit is accepted up
// to the queue's free capacity — a prefix, in order — and the rest is refused
// with ErrBacklog, which the HTTP handler reports next to the applied count.
func TestIntakeFullQueueAcceptsPrefix(t *testing.T) {
	g0, _ := testTopology(t, 8)
	s, st := newSeqServer(t, g0, Config{QueueDepth: 4})
	defer s.Close()

	// Stall the loop inside apply (it needs s.mu) with one event in hand, so
	// the queue behind it keeps whatever is enqueued next.
	s.mu.Lock()
	head := &submission{
		ev:   adversary.Event{Kind: adversary.Insert, Node: 100, Neighbors: []graph.NodeID{0}},
		done: make(chan error, 1),
		at:   time.Now(),
	}
	if s.intake.enqueue([]*submission{head}) != 1 {
		t.Fatal("intake refused the head event")
	}
	for s.intake.len() != 0 {
		time.Sleep(time.Millisecond)
	}

	events := make([]IngestEvent, 6)
	for i := range events {
		events[i] = IngestEvent{Kind: "insert", Node: graph.NodeID(200 + i), Neighbors: []graph.NodeID{0}}
	}
	body, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader(body)))
	}()
	for s.intake.len() != 4 { // the handler has enqueued its prefix
		time.Sleep(time.Millisecond)
	}
	s.mu.Unlock()
	<-served

	var resp IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode response %q: %v", rec.Body.String(), err)
	}
	if rec.Code != http.StatusServiceUnavailable || resp.Applied != 4 || !strings.Contains(resp.Error, ErrBacklog.Error()) {
		t.Fatalf("response = HTTP %d %+v, want 503 with 4 applied and ErrBacklog", rec.Code, resp)
	}
	if got := s.Counters().EventsBacklogged; got != 2 {
		t.Fatalf("EventsBacklogged = %d, want 2", got)
	}
	for i := range events {
		if alive, want := st.Alive(graph.NodeID(200+i)), i < 4; alive != want {
			t.Fatalf("node %d alive = %v, want %v: the accepted part is not the array's prefix", 200+i, alive, want)
		}
	}
}
