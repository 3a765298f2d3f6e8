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
	"github.com/xheal/xheal/internal/core"
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
// 503 therefore always means "applied is a prefix, resend the rest": when the
// accepted part itself contains a rejected event, that verdict (409) wins
// over the tail's backlog refusal, because applied is then no longer a prefix.
func TestIntakeFullQueueAcceptsPrefix(t *testing.T) {
	insert := func(n graph.NodeID) IngestEvent {
		return IngestEvent{Kind: "insert", Node: n, Neighbors: []graph.NodeID{0}}
	}
	for _, tc := range []struct {
		name       string
		depth      int
		events     []IngestEvent
		code       int
		applied    int
		errIs      error
		backlogged uint64
		alive      map[graph.NodeID]bool
	}{
		{
			name:  "clean prefix",
			depth: 4, events: []IngestEvent{insert(200), insert(201), insert(202), insert(203), insert(204), insert(205)},
			code: http.StatusServiceUnavailable, applied: 4, errIs: ErrBacklog, backlogged: 2,
			alive: map[graph.NodeID]bool{200: true, 201: true, 202: true, 203: true, 204: false, 205: false},
		},
		{
			name:  "rejection inside the accepted part",
			depth: 2, events: []IngestEvent{insert(200), {Kind: "delete", Node: 999}, insert(201), insert(202)},
			code: http.StatusConflict, applied: 1, errIs: core.ErrNodeMissing, backlogged: 2,
			alive: map[graph.NodeID]bool{200: true, 201: false, 202: false},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g0, _ := testTopology(t, 8)
			s, st := newSeqServer(t, g0, Config{QueueDepth: tc.depth})
			defer s.Close()

			// Stall the loop inside apply (it needs s.mu) with one event in
			// hand, so the queue behind it keeps whatever is enqueued next.
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

			body, err := json.Marshal(tc.events)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			served := make(chan struct{})
			go func() {
				defer close(served)
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader(body)))
			}()
			for s.intake.len() != tc.depth { // the handler has enqueued its prefix
				time.Sleep(time.Millisecond)
			}
			s.mu.Unlock()
			<-served

			var resp IngestResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("decode response %q: %v", rec.Body.String(), err)
			}
			if rec.Code != tc.code || resp.Applied != tc.applied || !strings.Contains(resp.Error, tc.errIs.Error()) {
				t.Fatalf("response = HTTP %d %+v, want %d with %d applied and %q", rec.Code, resp, tc.code, tc.applied, tc.errIs)
			}
			if got := s.Counters().EventsBacklogged; got != tc.backlogged {
				t.Fatalf("EventsBacklogged = %d, want %d", got, tc.backlogged)
			}
			for n, want := range tc.alive {
				if alive := st.Alive(n); alive != want {
					t.Fatalf("node %d alive = %v, want %v: the accepted part is not the array's prefix", n, alive, want)
				}
			}
		})
	}
}
