package core

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/xheal/xheal/internal/graph"
)

func TestApplyBatchInsertThenDelete(t *testing.T) {
	s := mustState(t, Config{Kappa: 4, Seed: 1}, star(8))
	batch := Batch{
		Insertions: []BatchInsertion{
			{Node: 100, Neighbors: []graph.NodeID{1, 2}},
			{Node: 101, Neighbors: []graph.NodeID{100}}, // attaches to same-batch insert
		},
		Deletions: []graph.NodeID{0, 3},
	}
	if err := s.ApplyBatch(batch); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if !s.Graph().IsConnected() {
		t.Fatal("disconnected after batch")
	}
	if s.Alive(0) || s.Alive(3) {
		t.Fatal("deleted nodes still alive")
	}
	if !s.Alive(100) || !s.Alive(101) {
		t.Fatal("inserted nodes missing")
	}
	st := s.Stats()
	if st.Insertions != 2 || st.Deletions != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestApplyBatchConflicts(t *testing.T) {
	base := star(6)
	cases := []struct {
		name  string
		batch Batch
		want  error
	}{
		{
			name: "duplicate insert",
			batch: Batch{Insertions: []BatchInsertion{
				{Node: 100, Neighbors: []graph.NodeID{1}},
				{Node: 100, Neighbors: []graph.NodeID{2}},
			}},
			want: ErrBatchConflict,
		},
		{
			name:  "duplicate delete",
			batch: Batch{Deletions: []graph.NodeID{1, 1}},
			want:  ErrBatchConflict,
		},
		{
			name: "insert then delete same node",
			batch: Batch{
				Insertions: []BatchInsertion{{Node: 100, Neighbors: []graph.NodeID{1}}},
				Deletions:  []graph.NodeID{100},
			},
			want: ErrBatchConflict,
		},
		{
			name: "attach to deleted",
			batch: Batch{
				Insertions: []BatchInsertion{{Node: 100, Neighbors: []graph.NodeID{2}}},
				Deletions:  []graph.NodeID{2},
			},
			want: ErrBatchConflict,
		},
		{
			name:  "delete missing",
			batch: Batch{Deletions: []graph.NodeID{999}},
			want:  ErrNodeMissing,
		},
		{
			name: "attach to unknown",
			batch: Batch{Insertions: []BatchInsertion{
				{Node: 100, Neighbors: []graph.NodeID{999}},
			}},
			want: ErrBadNeighbor,
		},
		{
			// Insertions apply in order: a forward reference would fail
			// mid-apply, so validation must reject it up front to keep the
			// wholesale-rejection guarantee.
			name: "attach to later insertion",
			batch: Batch{Insertions: []BatchInsertion{
				{Node: 100, Neighbors: []graph.NodeID{101}},
				{Node: 101, Neighbors: []graph.NodeID{1}},
			}},
			want: ErrBatchConflict,
		},
		{
			name: "insert existing node",
			batch: Batch{Insertions: []BatchInsertion{
				{Node: 1, Neighbors: []graph.NodeID{2}},
			}},
			want: ErrNodeExists,
		},
		{
			name: "self neighbor",
			batch: Batch{Insertions: []BatchInsertion{
				{Node: 100, Neighbors: []graph.NodeID{100}},
			}},
			want: ErrSelfInsert,
		},
		{
			name: "duplicate neighbor",
			batch: Batch{Insertions: []BatchInsertion{
				{Node: 100, Neighbors: []graph.NodeID{1, 1}},
			}},
			want: ErrBadNeighbor,
		},
		{
			// The failing event is second: without up-front validation the
			// first insertion would already have applied.
			name: "mid-batch failure stays wholesale",
			batch: Batch{Insertions: []BatchInsertion{
				{Node: 100, Neighbors: []graph.NodeID{1}},
				{Node: 101, Neighbors: []graph.NodeID{999}},
			}},
			want: ErrBadNeighbor,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := mustState(t, Config{Kappa: 4, Seed: 2}, base)
			before := s.CloneGraph()
			err := s.ApplyBatch(tc.batch)
			if !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want %v", err, tc.want)
			}
			if !s.Graph().Equal(before) {
				t.Fatal("failed batch mutated the state")
			}
		})
	}
}

func TestApplyBatchEquivalentToSequential(t *testing.T) {
	// Per the paper's Lemma 2 argument, a batch is equivalent to applying
	// its insertions then its deletions one timestep at a time.
	build := func() *State { return mustState(t, Config{Kappa: 4, Seed: 9}, star(10)) }

	batchState := build()
	err := batchState.ApplyBatch(Batch{
		Insertions: []BatchInsertion{{Node: 100, Neighbors: []graph.NodeID{1, 2}}},
		Deletions:  []graph.NodeID{0, 4},
	})
	if err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}

	seqState := build()
	if err := seqState.InsertNode(100, []graph.NodeID{1, 2}); err != nil {
		t.Fatalf("InsertNode: %v", err)
	}
	if err := seqState.DeleteNode(0); err != nil {
		t.Fatalf("DeleteNode: %v", err)
	}
	if err := seqState.DeleteNode(4); err != nil {
		t.Fatalf("DeleteNode: %v", err)
	}

	if !batchState.Graph().Equal(seqState.Graph()) {
		t.Fatal("batch and sequential runs diverged")
	}
	if !batchState.Baseline().Equal(seqState.Baseline()) {
		t.Fatal("baselines diverged")
	}
}

func TestApplyBatchChurn(t *testing.T) {
	s := mustState(t, Config{Kappa: 4, Seed: 11}, complete(12))
	rng := rand.New(rand.NewSource(13))
	next := graph.NodeID(500)
	for round := 0; round < 25; round++ {
		alive := s.AliveNodes()
		var b Batch
		// Two deletions per timestep (chosen first so insertions can avoid
		// attaching to them — the adversary may not reference dying nodes).
		doomed := make(map[graph.NodeID]struct{}, 2)
		if len(alive) > 6 {
			perm := rng.Perm(len(alive))
			b.Deletions = []graph.NodeID{alive[perm[0]], alive[perm[1]]}
			for _, d := range b.Deletions {
				doomed[d] = struct{}{}
			}
		}
		// Two insertions attached to surviving nodes.
		for k := 0; k < 2; k++ {
			var target graph.NodeID
			for {
				target = alive[rng.Intn(len(alive))]
				if _, dying := doomed[target]; !dying {
					break
				}
			}
			b.Insertions = append(b.Insertions, BatchInsertion{
				Node:      next,
				Neighbors: []graph.NodeID{target},
			})
			next++
		}
		if err := s.ApplyBatch(b); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("round %d invariants: %v", round, err)
		}
		if !s.Graph().IsConnected() {
			t.Fatalf("round %d: disconnected", round)
		}
	}
}

// A batch insertion reusing a deleted node's ID is rejected up front, like
// InsertNode would.
func TestApplyBatchReusedID(t *testing.T) {
	s := mustState(t, Config{Kappa: 4, Seed: 3}, star(6))
	if err := s.DeleteNode(5); err != nil {
		t.Fatalf("DeleteNode: %v", err)
	}
	before := s.CloneGraph()
	err := s.ApplyBatch(Batch{Insertions: []BatchInsertion{
		{Node: 5, Neighbors: []graph.NodeID{1}},
	}})
	if !errors.Is(err, ErrReusedNodeID) {
		t.Fatalf("error = %v, want ErrReusedNodeID", err)
	}
	if !s.Graph().Equal(before) {
		t.Fatal("failed batch mutated the state")
	}
}

// TestBatchPoisoning pins the fail-stop contract: a post-validation failure
// (here a panic induced by corrupting a cloud's maintainer) converts to an
// error and poisons the State — every subsequent call reports ErrPoisoned.
func TestBatchPoisoning(t *testing.T) {
	s := mustState(t, Config{Kappa: 4, Seed: 1}, star(10))
	if err := s.DeleteNode(0); err != nil { // hub repair builds a cloud
		t.Fatalf("seed deletion: %v", err)
	}
	if len(s.clouds) == 0 {
		t.Fatal("expected a cloud after healing the hub")
	}
	for _, c := range s.clouds {
		c.m = nil // sabotage: the next repair touching this cloud panics
	}
	victim := s.AliveNodes()[0]
	err := s.ApplyBatch(Batch{Deletions: []graph.NodeID{victim}})
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("ApplyBatch after sabotage = %v, want ErrPoisoned", err)
	}
	// Fail-stop: everything refuses, including snapshots and validation.
	if err := s.InsertNode(999, []graph.NodeID{s.AliveNodes()[0]}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("InsertNode on poisoned state = %v, want ErrPoisoned", err)
	}
	if err := s.DeleteNode(s.AliveNodes()[0]); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("DeleteNode on poisoned state = %v, want ErrPoisoned", err)
	}
	if err := s.ValidateBatch(Batch{}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("ValidateBatch on poisoned state = %v, want ErrPoisoned", err)
	}
	if _, err := s.SnapshotState(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("SnapshotState on poisoned state = %v, want ErrPoisoned", err)
	}
	if err := s.ApplyBatch(Batch{}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("ApplyBatch on poisoned state = %v, want ErrPoisoned", err)
	}
}
