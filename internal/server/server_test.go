package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/checkpoint"
	"github.com/xheal/xheal/internal/core"
	"github.com/xheal/xheal/internal/dist"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/obs"
	"github.com/xheal/xheal/internal/trace"
	"github.com/xheal/xheal/internal/workload"
)

// Both engines satisfy the whole serving contract.
var (
	_ Engine = (*core.State)(nil)
	_ Engine = (*dist.Engine)(nil)
)

func testTopology(t *testing.T, n int) (*graph.Graph, []graph.NodeID) {
	t.Helper()
	g0, err := workload.Cycle(n)
	if err != nil {
		t.Fatalf("Cycle(%d): %v", n, err)
	}
	return g0, append([]graph.NodeID(nil), g0.Nodes()...)
}

func newSeqServer(t *testing.T, g0 *graph.Graph, cfg Config) (*Server, *core.State) {
	t.Helper()
	st, err := core.NewState(core.Config{Kappa: 4, Seed: 11}, g0)
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	return New(st, cfg), st
}

// The satellite test: N goroutine clients hammer the server with overlapping
// insert/delete streams; afterwards the structural invariants hold, the
// queue is drained by Close, and the event log replays to the identical
// final graph. Run under -race in CI.
func TestConcurrentClients(t *testing.T) {
	const clients, events = 8, 60
	g0, anchors := testTopology(t, 12)

	var logBuf bytes.Buffer
	lw, err := trace.NewLogWriter(&logBuf, g0)
	if err != nil {
		t.Fatalf("log writer: %v", err)
	}
	s, st := newSeqServer(t, g0, Config{Tick: 200 * time.Microsecond, Log: lw})

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stream := adversary.NewClientStream(c, anchors, 0.35, 3, 500)
			for i := 0; i < events; i++ {
				if err := s.Submit(context.Background(), stream.Next()); err != nil {
					errs[c] = fmt.Errorf("client %d event %d: %w", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if depth := s.QueueDepth(); depth != 0 {
		t.Fatalf("queue not drained on shutdown: depth %d", depth)
	}
	c := s.Counters()
	if c.EventsApplied != clients*events {
		t.Fatalf("applied %d events, want %d (rejected %d, deferred %d)",
			c.EventsApplied, clients*events, c.EventsRejected, c.EventsDeferred)
	}
	if c.EventsRejected != 0 {
		t.Fatalf("%d events rejected under a conflict-free workload", c.EventsRejected)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants after load: %v", err)
	}

	replayed, err := replayLog(&logBuf, st.Kappa(), 11)
	if err != nil {
		t.Fatalf("replayLog: %v", err)
	}
	if !replayed.Equal(st.Graph()) {
		t.Fatalf("event-log replay diverged: replay n=%d m=%d, live n=%d m=%d",
			replayed.NumNodes(), replayed.NumEdges(), st.Graph().NumNodes(), st.Graph().NumEdges())
	}
}

// Same concurrent load with the distributed protocol engine hosted behind
// the same Server — the ApplyBatch facade parity in action. With a Recorder
// attached it is also the one place the span log, the engine's cost ledger
// and the event log are held against each other through the server: a drill
// outside the process can read spans and log, but not the ledger.
func TestConcurrentClientsDistributed(t *testing.T) {
	const clients, events = 4, 25
	g0, anchors := testTopology(t, 10)
	eng, err := dist.NewEngine(dist.Config{Kappa: 4, Seed: 11}, g0)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer eng.Close()

	var logBuf bytes.Buffer
	lw, err := trace.NewLogWriter(&logBuf, g0)
	if err != nil {
		t.Fatalf("log writer: %v", err)
	}
	var spanBuf bytes.Buffer
	spanW := obs.NewSpanWriter(&spanBuf)
	s := New(eng, Config{Tick: time.Millisecond, Log: lw, Recorder: obs.NewRecorder(spanW, nil)})

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stream := adversary.NewClientStream(c, anchors, 0.3, 2, 900)
			for i := 0; i < events; i++ {
				if err := s.Submit(context.Background(), stream.Next()); err != nil {
					errs[c] = fmt.Errorf("client %d event %d: %w", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants (incl. local views): %v", err)
	}
	logged := logBuf.Bytes()
	replayed, err := replayLog(bytes.NewReader(logged), eng.Kappa(), 11)
	if err != nil {
		t.Fatalf("replayLog: %v", err)
	}
	if !replayed.Equal(eng.Graph()) {
		t.Fatal("event-log replay diverged from the distributed engine's graph")
	}

	// One span per applied deletion; each names its delete line of the event
	// log and carries the cost-ledger entry of the same ordinal.
	if err := spanW.Close(); err != nil {
		t.Fatalf("close span log: %v", err)
	}
	spans, err := obs.ReadSpans(&spanBuf)
	if err != nil {
		t.Fatalf("ReadSpans: %v", err)
	}
	tr, err := trace.Load(bytes.NewReader(logged))
	if err != nil {
		t.Fatalf("load event log: %v", err)
	}
	costs := eng.Costs()
	if deletes := s.Counters().DeletesApplied; uint64(len(spans)) != deletes || len(costs) != len(spans) || deletes == 0 {
		t.Fatalf("%d spans, %d ledger entries, %d deletions applied; want all equal and non-zero", len(spans), len(costs), deletes)
	}
	for i, sp := range spans {
		if sp.Seq != i || sp.Event < 0 || sp.Event >= len(tr.Events) {
			t.Fatalf("span %d: seq %d, event index %d of %d logged events", i, sp.Seq, sp.Event, len(tr.Events))
		}
		if ev := tr.Events[sp.Event]; ev.Kind != "delete" || ev.Node != sp.Node {
			t.Fatalf("span %d says delete %d, log line %d is %s %d", i, sp.Node, sp.Event, ev.Kind, ev.Node)
		}
		if c := costs[i]; sp.Node != c.Node || sp.Rounds != c.Rounds || sp.Messages != c.Messages {
			t.Fatalf("span %d (node %d, %d rounds, %d messages) disagrees with ledger entry (node %d, %d rounds, %d messages)",
				i, sp.Node, sp.Rounds, sp.Messages, c.Node, c.Rounds, c.Messages)
		}
		// Lemma 5: a repair costs at least its black degree in messages.
		if sp.Messages < sp.BlackDegree || sp.Rounds < 1 {
			t.Fatalf("span %d: %d messages for black degree %d, %d rounds", i, sp.Messages, sp.BlackDegree, sp.Rounds)
		}
	}
}

// Two events on the same node arriving within one tick: the second defers
// to the next timestep and both apply.
func TestSameTickConflictDefers(t *testing.T) {
	g0, _ := testTopology(t, 8)
	s, st := newSeqServer(t, g0, Config{Tick: 50 * time.Millisecond})
	defer s.Close()

	insDone := make(chan error, 1)
	delDone := make(chan error, 1)
	go func() {
		insDone <- s.Submit(context.Background(),
			adversary.Event{Kind: adversary.Insert, Node: 100, Neighbors: []graph.NodeID{0, 1}})
	}()
	time.Sleep(5 * time.Millisecond) // same 50ms tick, insert first
	go func() {
		delDone <- s.Submit(context.Background(),
			adversary.Event{Kind: adversary.Delete, Node: 100})
	}()
	if err := <-insDone; err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := <-delDone; err != nil {
		t.Fatalf("deferred delete: %v", err)
	}
	c := s.Counters()
	if c.EventsDeferred == 0 {
		t.Fatal("expected at least one deferral for the same-tick insert+delete")
	}
	if c.Ticks < 2 {
		t.Fatalf("expected two timesteps, got %d", c.Ticks)
	}
	if st.Alive(100) {
		t.Fatal("node 100 should be deleted after the deferred delete applied")
	}
}

// A delete of a node that a same-tick insertion attaches to must defer to
// the next timestep — admitting it would invalidate the whole batch and
// fail every member wholesale.
func TestDeleteOfAttachedNeighborDefers(t *testing.T) {
	g0, _ := testTopology(t, 8)
	s, st := newSeqServer(t, g0, Config{Tick: 50 * time.Millisecond})
	defer s.Close()

	insDone := make(chan error, 1)
	delDone := make(chan error, 1)
	go func() {
		insDone <- s.Submit(context.Background(),
			adversary.Event{Kind: adversary.Insert, Node: 100, Neighbors: []graph.NodeID{0, 1}})
	}()
	time.Sleep(5 * time.Millisecond) // same 50ms tick, insert admitted first
	go func() {
		delDone <- s.Submit(context.Background(),
			adversary.Event{Kind: adversary.Delete, Node: 0}) // neighbor of the insert
	}()
	if err := <-insDone; err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := <-delDone; err != nil {
		t.Fatalf("deferred delete of attached neighbor: %v", err)
	}
	c := s.Counters()
	if c.EventsRejected != 0 {
		t.Fatalf("%d events rejected; the conflict should defer, not fail the batch", c.EventsRejected)
	}
	if c.EventsDeferred == 0 {
		t.Fatal("expected the delete to defer one tick")
	}
	if st.Alive(0) || !st.Alive(100) {
		t.Fatal("final state wrong: want node 0 deleted, node 100 alive")
	}
}

// failAfterWriter errors every write after the first n bytes, simulating a
// disk filling up under the event log.
type failAfterWriter struct {
	n       int
	written int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, errors.New("disk full")
	}
	w.written += len(p)
	return len(p), nil
}

// A mid-run event-log write failure must break the daemon loudly: the batch
// that hit the failure and every later submission fail with ErrNotDurable
// (never an ack-nil for a non-durable event), health reports the degraded
// state, and the failure still surfaces at Close.
func TestLogWriteFailureRefusesWrites(t *testing.T) {
	g0, _ := testTopology(t, 8)
	lw, err := trace.NewLogWriter(&failAfterWriter{n: 600}, g0)
	if err != nil {
		t.Fatalf("log writer: %v", err)
	}
	s, _ := newSeqServer(t, g0, Config{Log: lw})
	ctx := context.Background()
	acked, failed := 0, 0
	for i := 0; i < 20; i++ {
		ev := adversary.Event{Kind: adversary.Insert,
			Node: graph.NodeID(100 + i), Neighbors: []graph.NodeID{0}}
		switch err := s.Submit(ctx, ev); {
		case err == nil:
			if failed > 0 {
				t.Fatalf("Submit %d acked nil after the log failed", i)
			}
			acked++
		case errors.Is(err, ErrNotDurable):
			failed++
		default:
			t.Fatalf("Submit %d: %v, want nil or ErrNotDurable", i, err)
		}
	}
	if acked == 0 || failed == 0 {
		t.Fatalf("acked=%d failed=%d: want the log to fail mid-run", acked, failed)
	}
	h := s.Health()
	if h.Status != "degraded" || !strings.Contains(h.LogError, "disk full") {
		t.Fatalf("Health = %q/%q, want degraded with the log failure", h.Status, h.LogError)
	}
	if got := s.Counters().EventsNotDurable; got != uint64(failed) {
		t.Fatalf("EventsNotDurable = %d, want %d", got, failed)
	}
	if !strings.Contains(s.PrometheusText(), "\nxheal_serve_log_failed 1\n") {
		t.Fatal("metrics: xheal_serve_log_failed gauge not set")
	}
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Close = %v, want the recorded log write failure", err)
	}
}

// awaitTickEnd returns once the tick whose ack the caller holds has released
// the apply lock — its checkpoint, if it took one, included.
func awaitTickEnd(s *Server) {
	s.mu.Lock()
	s.mu.Unlock() // empty critical section: a barrier
}

// rotateFailLog is a RotatingLog whose segments cannot be rotated.
type rotateFailLog struct{ EventLog }

func (rotateFailLog) Rotate(uint64, string) error { return errors.New("rotate: disk full") }
func (rotateFailLog) Compact(uint64, bool) error  { return nil }

// A log failure found while rotating behind a checkpoint — after the tick's
// members were acked — must put the daemon into the same refuse-writes state
// as an append failure, at once: the degraded flag mirrors logErr, so the
// next Submit is refused at the door instead of being queued for a tick.
func TestRotateFailureRefusesWrites(t *testing.T) {
	g0, _ := testTopology(t, 8)
	lw, err := trace.NewLogWriter(&bytes.Buffer{}, g0)
	if err != nil {
		t.Fatalf("log writer: %v", err)
	}
	s, _ := newSeqServer(t, g0, Config{
		Log: rotateFailLog{lw}, Checkpoints: checkpoint.NewMemStore(), CheckpointEvery: 1,
	})
	ctx := context.Background()
	if err := s.Submit(ctx, adversary.Event{Kind: adversary.Insert, Node: 100, Neighbors: []graph.NodeID{0}}); err != nil {
		t.Fatalf("Submit before the rotation failed: %v", err)
	}
	// The ack precedes the checkpoint inside the same tick, and Counters no
	// longer waits for the apply lock: pass through it once, so that tick's
	// checkpoint and failed rotation are behind us.
	awaitTickEnd(s)
	if c := s.Counters(); c.Checkpoints != 1 {
		t.Fatalf("Checkpoints = %d, want 1", c.Checkpoints)
	}
	// (The leading newline keeps the HELP line, "... log_failed 1 when ...",
	// from matching.)
	if !strings.Contains(s.PrometheusText(), "\nxheal_serve_log_failed 1\n") {
		t.Fatal("rotation failure recorded in logErr but the degraded flag is not set")
	}
	err = s.Submit(ctx, adversary.Event{Kind: adversary.Insert, Node: 101, Neighbors: []graph.NodeID{0}})
	if !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Submit after the rotation failed = %v, want ErrNotDurable", err)
	}
	if h := s.Health(); h.Status != "degraded" || !strings.Contains(h.LogError, "rotate: disk full") {
		t.Fatalf("Health = %q/%q, want degraded with the rotation failure", h.Status, h.LogError)
	}
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), "rotate: disk full") {
		t.Fatalf("Close = %v, want the recorded rotation failure", err)
	}
}

func TestRejections(t *testing.T) {
	g0, _ := testTopology(t, 8)
	s, _ := newSeqServer(t, g0, Config{})
	defer s.Close()
	ctx := context.Background()

	err := s.Submit(ctx, adversary.Event{Kind: adversary.Delete, Node: 999})
	if !errors.Is(err, core.ErrNodeMissing) {
		t.Fatalf("delete unknown = %v, want ErrNodeMissing", err)
	}
	err = s.Submit(ctx, adversary.Event{Kind: adversary.Insert, Node: 0, Neighbors: []graph.NodeID{1}})
	if !errors.Is(err, core.ErrNodeExists) {
		t.Fatalf("insert existing = %v, want ErrNodeExists", err)
	}
	err = s.Submit(ctx, adversary.Event{Kind: adversary.Insert, Node: 100, Neighbors: []graph.NodeID{999}})
	if !errors.Is(err, core.ErrBadNeighbor) {
		t.Fatalf("insert w/ dead neighbor = %v, want ErrBadNeighbor", err)
	}
	err = s.Submit(ctx, adversary.Event{Kind: adversary.Insert, Node: 100, Neighbors: nil})
	if !errors.Is(err, core.ErrBadNeighbor) {
		t.Fatalf("insert w/o neighbors = %v, want ErrBadNeighbor", err)
	}
	if got := s.Counters().EventsRejected; got != 4 {
		t.Fatalf("EventsRejected = %d, want 4", got)
	}
}

func TestMinNodesGuard(t *testing.T) {
	g0, _ := testTopology(t, 3)
	s, _ := newSeqServer(t, g0, Config{MinNodes: 3})
	defer s.Close()
	err := s.Submit(context.Background(), adversary.Event{Kind: adversary.Delete, Node: 0})
	if !errors.Is(err, ErrTooFewNodes) {
		t.Fatalf("delete at the floor = %v, want ErrTooFewNodes", err)
	}
}

// With the tick loop stalled mid-apply and a tiny queue, Submit reports
// backpressure instead of blocking, and Close still drains what was
// accepted.
func TestBackpressure(t *testing.T) {
	g0, _ := testTopology(t, 8)
	s, st := newSeqServer(t, g0, Config{QueueDepth: 1})

	// Stall the loop: apply() needs s.mu, which the test holds. Enqueue
	// submissions directly (same package) so "the loop picked it up" is
	// observable as the queue emptying.
	s.mu.Lock()
	enqueue := func(node graph.NodeID) *submission {
		sub := &submission{
			ev:   adversary.Event{Kind: adversary.Insert, Node: node, Neighbors: []graph.NodeID{0}},
			done: make(chan error, 1),
			at:   time.Now(),
		}
		if s.intake.enqueue([]*submission{sub}) != 1 {
			t.Fatalf("intake refused enqueue of %d", node)
		}
		return sub
	}
	subA := enqueue(100)
	for s.intake.len() != 0 { // loop has picked event 100 up
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // let the loop reach apply() and block
	subB := enqueue(101)              // fills the depth-1 queue behind the stalled loop

	err := s.Submit(context.Background(),
		adversary.Event{Kind: adversary.Insert, Node: 102, Neighbors: []graph.NodeID{0}})
	if !errors.Is(err, ErrBacklog) {
		t.Fatalf("overflow submit = %v, want ErrBacklog", err)
	}
	s.mu.Unlock()
	if got := s.Counters().EventsBacklogged; got != 1 {
		t.Fatalf("EventsBacklogged = %d, want 1", got)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, sub := range []*submission{subA, subB} {
		if err := <-sub.done; err != nil {
			t.Fatalf("accepted submission failed: %v", err)
		}
	}
	if !st.Alive(100) || !st.Alive(101) {
		t.Fatal("accepted events not applied during shutdown drain")
	}
	if err := s.Submit(context.Background(), adversary.Event{Kind: adversary.Delete, Node: 0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestHealthSnapshot(t *testing.T) {
	g0, _ := testTopology(t, 8)
	s, _ := newSeqServer(t, g0, Config{})
	defer s.Close()
	if err := s.Submit(context.Background(),
		adversary.Event{Kind: adversary.Insert, Node: 50, Neighbors: []graph.NodeID{0, 4}}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	h := s.Health()
	if h.Status != "ok" || !h.Connected {
		t.Fatalf("health = %+v, want ok/connected", h)
	}
	if h.Nodes != 9 {
		t.Fatalf("health nodes = %d, want 9", h.Nodes)
	}
	if h.Counters.EventsApplied != 1 || h.Counters.Ticks == 0 {
		t.Fatalf("health counters = %+v", h.Counters)
	}
	if h.Kappa != 4 {
		t.Fatalf("health kappa = %d, want 4", h.Kappa)
	}
}

// faultCloseLog is an EventLog whose Close fails after delegating — the
// FaultStore-style injection for the shutdown flush path.
type faultCloseLog struct {
	inner    EventLog
	closeErr error
}

func (f *faultCloseLog) Append(ev adversary.Event) error { return f.inner.Append(ev) }

func (f *faultCloseLog) Close() error {
	if err := f.inner.Close(); err != nil {
		return err
	}
	return f.closeErr
}

// TestCloseSurfacesLogCloseFailure pins the graceful-drain contract: a
// failed event-log close during the final drain must come back out of
// Server.Close (cmd/xheal-serve exits non-zero on it) and flip the daemon
// to degraded, not vanish into a private field.
func TestCloseSurfacesLogCloseFailure(t *testing.T) {
	g0, anchors := testTopology(t, 8)
	var logBuf bytes.Buffer
	lw, err := trace.NewLogWriter(&logBuf, g0)
	if err != nil {
		t.Fatalf("log writer: %v", err)
	}
	injected := errors.New("injected close failure")
	s, st := newSeqServer(t, g0, Config{Log: &faultCloseLog{inner: lw, closeErr: injected}})

	// Traffic before shutdown, so the log has a tail worth flushing.
	if err := s.Submit(context.Background(), adversary.Event{
		Kind: adversary.Insert, Node: 1000, Neighbors: anchors[:1],
	}); err != nil {
		t.Fatalf("Submit: %v", err)
	}

	if err := s.Close(); !errors.Is(err, injected) {
		t.Fatalf("Close = %v, want the injected log-close failure", err)
	}
	h := s.Health()
	if h.Status != "degraded" {
		t.Fatalf("health after failed log close = %q, want degraded", h.Status)
	}
	if !strings.Contains(h.LogError, "injected close failure") {
		t.Fatalf("health.LogError = %q, want the injected failure", h.LogError)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
}

// TestConcurrentClientsParallel is TestConcurrentClients with the parallel
// disjoint-wound path on: the engine state must stay invariant-clean and
// the event log must replay (serially) to the identical final graph —
// the serial-equivalence guarantee observed end to end through the server.
func TestConcurrentClientsParallel(t *testing.T) {
	const clients, events = 8, 60
	g0, anchors := testTopology(t, 24)

	var logBuf bytes.Buffer
	lw, err := trace.NewLogWriter(&logBuf, g0)
	if err != nil {
		t.Fatalf("log writer: %v", err)
	}
	s, st := newSeqServer(t, g0, Config{Tick: 200 * time.Microsecond, Log: lw, Parallelism: 4})

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stream := adversary.NewClientStream(c, anchors, 0.35, 3, 500)
			for i := 0; i < events; i++ {
				if err := s.Submit(context.Background(), stream.Next()); err != nil {
					errs[c] = fmt.Errorf("client %d event %d: %w", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants after parallel load: %v", err)
	}
	replayed, err := replayLog(&logBuf, st.Kappa(), 11)
	if err != nil {
		t.Fatalf("replayLog: %v", err)
	}
	if !replayed.Equal(st.Graph()) {
		t.Fatalf("serial replay diverged from parallel-applied state: replay n=%d m=%d, live n=%d m=%d",
			replayed.NumNodes(), replayed.NumEdges(), st.Graph().NumNodes(), st.Graph().NumEdges())
	}
}
