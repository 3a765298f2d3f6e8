package server

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/trace"
)

// Deferral and backpressure under the parallel batcher. The admission logic
// (admit -> defer -> carry) runs on the loop goroutine either way,
// but with Config.Parallelism > 1 the applied batch fans out across repair
// workers — these tests pin that the conflict-handling contract survives the
// parallel path bit-for-bit, and -race watches the handoff.

// TestSameTickConflictDefersParallel mirrors TestSameTickConflictDefers on
// the parallel apply path: an insert and a delete of the same node arriving
// in one tick window must split across two timesteps, not fail.
func TestSameTickConflictDefersParallel(t *testing.T) {
	g0, _ := testTopology(t, 16)
	s, st := newSeqServer(t, g0, Config{Tick: 50 * time.Millisecond, Parallelism: 4})
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
	if c.EventsRejected != 0 {
		t.Fatalf("%d events rejected on the parallel path, want 0", c.EventsRejected)
	}
	if st.Alive(100) {
		t.Fatal("node 100 should be deleted after the deferred delete applied")
	}
}

// TestDeleteOfAttachedNeighborDefersParallel is the other same-tick conflict
// shape — deleting the node a batched insert attaches to — on the parallel
// apply path.
func TestDeleteOfAttachedNeighborDefersParallel(t *testing.T) {
	g0, _ := testTopology(t, 16)
	s, st := newSeqServer(t, g0, Config{Tick: 50 * time.Millisecond, Parallelism: 4})
	defer s.Close()

	insDone := make(chan error, 1)
	delDone := make(chan error, 1)
	go func() {
		insDone <- s.Submit(context.Background(),
			adversary.Event{Kind: adversary.Insert, Node: 100, Neighbors: []graph.NodeID{0, 1}})
	}()
	time.Sleep(5 * time.Millisecond)
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

// TestConflictCapRejectsParallel pins the MaxDefer escape hatch: an event
// that keeps conflicting tick after tick is eventually failed with
// ErrTooManyConflicts instead of being carried forever. Two deletes of the
// same just-inserted node conflict in the arrival tick (with the insert)
// and then with each other in the carry tick; with MaxDefer 1 the loser of
// the second tick is rejected.
func TestConflictCapRejectsParallel(t *testing.T) {
	g0, _ := testTopology(t, 16)
	s, st := newSeqServer(t, g0, Config{Tick: 50 * time.Millisecond, Parallelism: 4, MaxDefer: 1})
	defer s.Close()

	insDone := make(chan error, 1)
	go func() {
		insDone <- s.Submit(context.Background(),
			adversary.Event{Kind: adversary.Insert, Node: 100, Neighbors: []graph.NodeID{0, 1}})
	}()
	time.Sleep(5 * time.Millisecond)
	delErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			delErrs <- s.Submit(context.Background(),
				adversary.Event{Kind: adversary.Delete, Node: 100})
		}()
	}
	if err := <-insDone; err != nil {
		t.Fatalf("insert: %v", err)
	}
	var applied, capped int
	for i := 0; i < 2; i++ {
		switch err := <-delErrs; {
		case err == nil:
			applied++
		case errors.Is(err, ErrTooManyConflicts):
			capped++
		default:
			t.Fatalf("duplicate delete: %v", err)
		}
	}
	if applied != 1 || capped != 1 {
		t.Fatalf("duplicate deletes: %d applied, %d capped, want 1/1", applied, capped)
	}
	c := s.Counters()
	if c.EventsRejected != 1 {
		t.Fatalf("EventsRejected = %d, want 1", c.EventsRejected)
	}
	if st.Alive(100) {
		t.Fatal("node 100 should be gone: one duplicate delete must win")
	}
}

// TestBackpressureParallel is TestBackpressure with the parallel batcher
// configured: a stalled apply plus a full depth-1 queue must still surface
// ErrBacklog to the overflowing submitter and fail nobody who was accepted.
func TestBackpressureParallel(t *testing.T) {
	g0, _ := testTopology(t, 8)
	s, st := newSeqServer(t, g0, Config{QueueDepth: 1, Parallelism: 4})

	// Stall the loop: apply() needs s.mu, which the test holds (the parallel
	// fan-out happens under the same lock). Enqueue submissions directly so
	// "the loop picked it up" is observable as the queue emptying.
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
	if !st.Alive(100) || !st.Alive(101) || st.Alive(102) {
		t.Fatal("final aliveness wrong: want 100,101 applied and 102 refused")
	}
}

// TestParallelConflictStorm hammers the parallel batcher with deliberately
// colliding streams — every client inserts and immediately deletes from a
// tiny shared ID space — so the carry/defer machinery runs constantly while
// repair work fans out. Run under -race; afterwards the invariants hold and
// the log replays to the identical graph.
func TestParallelConflictStorm(t *testing.T) {
	const clients, rounds = 8, 10
	g0, _ := testTopology(t, 24)

	var logBuf bytes.Buffer
	lw, err := trace.NewLogWriter(&logBuf, g0)
	if err != nil {
		t.Fatalf("log writer: %v", err)
	}
	// A 5ms tick gives each client's insert+delete pair a wide window to land
	// in the same batch; the delete is submitted while its insert is still
	// pending, so most rounds force a carry. The huge RefreshEvery keeps the
	// background λ₂ refresher off the CPU after its seeding run; the live
	// path has its own concurrency coverage in live_test.go.
	s, st := newSeqServer(t, g0, Config{Tick: 5 * time.Millisecond, Log: lw, Parallelism: 4, MaxDefer: 64, RefreshEvery: 1 << 30})

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			base := graph.NodeID(1000 + 1000*c) // IDs are never reusable after deletion
			for i := 0; i < rounds; i++ {
				node := base + graph.NodeID(i)
				// The insert is in the queue before the delete is submitted:
				// same tick window, insert first, on any scheduler.
				ins, err := s.submitAsync(adversary.Event{Kind: adversary.Insert, Node: node,
					Neighbors: []graph.NodeID{graph.NodeID(c % 4), graph.NodeID(4 + c%4)}})
				if err != nil {
					t.Errorf("client %d insert %d: %v", c, node, err)
					return
				}
				if err := s.Submit(context.Background(),
					adversary.Event{Kind: adversary.Delete, Node: node}); err != nil {
					t.Errorf("client %d delete %d: %v", c, node, err)
					return
				}
				if err := <-ins.done; err != nil {
					t.Errorf("client %d insert %d: %v", c, node, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if t.Failed() {
		return
	}
	if s.Counters().EventsDeferred == 0 {
		t.Fatal("storm produced zero deferrals — it is not exercising the carry path")
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants after conflict storm: %v", err)
	}
	replayed, err := replayLog(&logBuf, st.Kappa(), 11)
	if err != nil {
		t.Fatalf("replayLog: %v", err)
	}
	if !replayed.Equal(st.Graph()) {
		t.Fatalf("replay diverged after conflict storm: replay n=%d m=%d, live n=%d m=%d",
			replayed.NumNodes(), replayed.NumEdges(), st.Graph().NumNodes(), st.Graph().NumEdges())
	}
}
