package core

import (
	"errors"
	"fmt"

	"github.com/xheal/xheal/internal/graph"
)

// The paper's model admits one attack per timestep but notes "Our algorithm
// can be extended to handle multiple insertions/deletions." This file is
// that extension: a Batch applies a set of insertions and deletions as one
// timestep. Following the proof of Lemma 2 (insertions commute with healing
// and can be reordered before deletions without changing either G or G′),
// insertions are applied first; deletions are then healed one at a time,
// which is equivalent to the adversary presenting them back-to-back.

// BatchInsertion is one node joining within a batch.
type BatchInsertion struct {
	Node      graph.NodeID
	Neighbors []graph.NodeID
}

// Batch is one multi-event timestep.
type Batch struct {
	Insertions []BatchInsertion
	Deletions  []graph.NodeID
}

// ErrBatchConflict is returned when a batch is internally inconsistent
// (duplicate targets, deleting a node inserted in the same batch, or an
// insertion attaching to a node deleted in the same batch).
var ErrBatchConflict = errors.New("core: conflicting batch")

// ValidateBatch checks the batch's internal consistency against the current
// state without applying anything, mirroring exactly what InsertNode and
// DeleteNode would reject so that a validated batch cannot fail mid-apply:
// duplicate targets, insert/delete of the same node in one timestep,
// attachments to batch-deleted or later-inserted nodes (all
// ErrBatchConflict), insertions of alive or used IDs (ErrNodeExists /
// ErrReusedNodeID), deletions of absent nodes (ErrNodeMissing), and
// self/duplicate/unknown attachments (ErrSelfInsert / ErrBadNeighbor).
// Callers that assemble batches from concurrent submissions
// (internal/server) use it to decide which events can share a timestep
// before committing any of them.
func (s *State) ValidateBatch(b Batch) error {
	if s.poisoned != nil {
		return s.poisonedErr()
	}
	inserted := make(map[graph.NodeID]struct{}, len(b.Insertions))
	for _, ins := range b.Insertions {
		if _, dup := inserted[ins.Node]; dup {
			return fmt.Errorf("node %d inserted twice: %w", ins.Node, ErrBatchConflict)
		}
		if s.g.HasNode(ins.Node) {
			return fmt.Errorf("insert %d: %w", ins.Node, ErrNodeExists)
		}
		if _, was := s.deleted[ins.Node]; was || s.gp.HasNode(ins.Node) {
			return fmt.Errorf("insert %d: %w", ins.Node, ErrReusedNodeID)
		}
		inserted[ins.Node] = struct{}{}
	}
	deleted := make(map[graph.NodeID]struct{}, len(b.Deletions))
	for _, d := range b.Deletions {
		if _, dup := deleted[d]; dup {
			return fmt.Errorf("node %d deleted twice: %w", d, ErrBatchConflict)
		}
		deleted[d] = struct{}{}
		if _, ok := inserted[d]; ok {
			return fmt.Errorf("node %d inserted and deleted in one batch: %w", d, ErrBatchConflict)
		}
		if !s.g.HasNode(d) {
			return fmt.Errorf("delete %d: %w", d, ErrNodeMissing)
		}
	}
	// Insertions apply in batch order, so an attachment is only valid if its
	// target is alive now or was inserted *earlier* in the batch.
	soFar := make(map[graph.NodeID]struct{}, len(b.Insertions))
	for _, ins := range b.Insertions {
		seen := make(map[graph.NodeID]struct{}, len(ins.Neighbors))
		for _, w := range ins.Neighbors {
			if w == ins.Node {
				return fmt.Errorf("insert %d: %w", ins.Node, ErrSelfInsert)
			}
			if _, dup := seen[w]; dup {
				return fmt.Errorf("insert %d: duplicate neighbor %d: %w", ins.Node, w, ErrBadNeighbor)
			}
			seen[w] = struct{}{}
			if _, gone := deleted[w]; gone {
				return fmt.Errorf("insertion %d attaches to node %d deleted in the same batch: %w",
					ins.Node, w, ErrBatchConflict)
			}
			if _, earlier := soFar[w]; earlier || s.g.HasNode(w) {
				continue
			}
			if _, later := inserted[w]; later {
				return fmt.Errorf("insertion %d attaches to node %d inserted later in the batch: %w",
					ins.Node, w, ErrBatchConflict)
			}
			return fmt.Errorf("insertion %d attaches to unknown node %d: %w",
				ins.Node, w, ErrBadNeighbor)
		}
		soFar[ins.Node] = struct{}{}
	}
	return nil
}

// ApplyBatch applies a multi-event timestep: all insertions (in order; an
// insertion may attach to nodes inserted earlier in the same batch), then
// all deletions, healing after each.
//
// Failure contract: the batch is validated up front and rejected wholesale
// on conflict, and a validation failure leaves the state unchanged. A
// post-validation failure — which ValidateBatch's admission mirror makes
// unreachable short of a bug, and which includes a panic escaping a repair —
// is converted to an error and fail-stops the State: the batch may be half
// applied, so every subsequent mutating or exporting call returns
// ErrPoisoned rather than serving a state no serial schedule produced.
func (s *State) ApplyBatch(b Batch) (err error) {
	if s.poisoned != nil {
		return s.poisonedErr()
	}
	if err := s.ValidateBatch(b); err != nil {
		return err
	}
	defer s.convertPanic(&err)
	for _, ins := range b.Insertions {
		if err := s.InsertNode(ins.Node, ins.Neighbors); err != nil {
			return s.poison(fmt.Errorf("batch insertion %d: %w", ins.Node, err))
		}
	}
	for _, d := range b.Deletions {
		if err := s.DeleteNode(d); err != nil {
			return s.poison(fmt.Errorf("batch deletion %d: %w", d, err))
		}
	}
	return nil
}

// ApplyBatchParallel is ApplyBatch; the worker count is ignored.
//
// Deprecated: repairs are applied serially. Kept only because the frozen
// benchmark/traced.go names server.ParallelBatcher; ROADMAP item 4(i)
// removes that use, and this method with it.
func (s *State) ApplyBatchParallel(b Batch, _ int) error { return s.ApplyBatch(b) }

// poison fail-stops the State with cause and returns the error that every
// later call will observe (wrapped in ErrPoisoned).
func (s *State) poison(cause error) error {
	if s.poisoned == nil {
		s.poisoned = cause
	}
	return s.poisonedErr()
}

// poisonedErr returns the sticky fail-stop error.
func (s *State) poisonedErr() error {
	return fmt.Errorf("%w: %w", ErrPoisoned, s.poisoned)
}

// convertPanic turns a panic escaping a batch apply into a poisoning error:
// the repair machinery has no recovery points mid-heal, so an escaped panic
// means the state is mid-mutation and must not be used again.
func (s *State) convertPanic(err *error) {
	if r := recover(); r != nil {
		*err = s.poison(fmt.Errorf("core: panic during batch apply: %v", r))
	}
}
