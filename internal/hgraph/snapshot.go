package hgraph

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/wire"
)

// ErrBadSnapshot wraps all snapshot-decode failures.
var ErrBadSnapshot = errors.New("hgraph: malformed snapshot")

// Snapshot is the serializable form of an H-graph. It captures the exact
// internal layout — the sampling order and each Hamilton cycle as a
// successor walk — not just the edge set, because future random splices
// index into the order slice: a restore that merely rebuilt an equivalent
// wiring would diverge from the uncrashed run on the next Insert.
type Snapshot struct {
	// D is the number of Hamilton cycles.
	D int
	// Order is the internal sampling order (swap-remove order, NOT sorted).
	Order []graph.NodeID
	// Cycles[i] is cycle i as a successor walk starting at Order[0]:
	// Cycles[i][j+1] = succ_i(Cycles[i][j]), omitting the closing edge back
	// to Order[0]. Each walk is a permutation of Order.
	Cycles [][]graph.NodeID
}

// Encode appends the snapshot's binary form to w: D, the order, then each
// cycle walk, all as ordered ID sequences.
func (s *Snapshot) Encode(w *wire.Writer) {
	w.Int(int64(s.D))
	w.NodeSeq(s.Order)
	w.Uvarint(uint64(len(s.Cycles)))
	for _, walk := range s.Cycles {
		w.NodeSeq(walk)
	}
}

// DecodeSnapshot reads what Encode wrote. Failures stay in r (see
// wire.Reader.Err); Restore validates the content.
func DecodeSnapshot(r *wire.Reader) *Snapshot {
	s := &Snapshot{D: int(r.Int()), Order: r.NodeSeq()}
	s.Cycles = make([][]graph.NodeID, r.Count(1))
	for i := range s.Cycles {
		s.Cycles[i] = r.NodeSeq()
	}
	return s
}

// Snapshot captures the full internal state of h.
func (h *H) Snapshot() *Snapshot {
	s := &Snapshot{
		D:      h.d,
		Order:  append([]graph.NodeID(nil), h.order...),
		Cycles: make([][]graph.NodeID, h.d),
	}
	for i := 0; i < h.d; i++ {
		walk := make([]graph.NodeID, 0, len(h.order))
		v := h.order[0]
		for range h.order {
			walk = append(walk, v)
			v = h.succ[i][v]
		}
		s.Cycles[i] = walk
	}
	return s
}

// Restore rebuilds an H-graph from a snapshot, resuming random splices from
// rng (the restored shared healing stream).
func Restore(s *Snapshot, rng *rand.Rand) (*H, error) {
	if s.D < 1 {
		return nil, fmt.Errorf("%w: d=%d", ErrBadSnapshot, s.D)
	}
	if len(s.Order) < MinSize {
		return nil, fmt.Errorf("%w: %d members", ErrBadSnapshot, len(s.Order))
	}
	if len(s.Cycles) != s.D {
		return nil, fmt.Errorf("%w: %d cycles for d=%d", ErrBadSnapshot, len(s.Cycles), s.D)
	}
	h := &H{
		d:     s.D,
		succ:  make([]map[graph.NodeID]graph.NodeID, s.D),
		pred:  make([]map[graph.NodeID]graph.NodeID, s.D),
		order: append([]graph.NodeID(nil), s.Order...),
		pos:   make(map[graph.NodeID]int, len(s.Order)),
		rng:   rng,
	}
	for i, v := range h.order {
		if _, dup := h.pos[v]; dup {
			return nil, fmt.Errorf("%w: duplicate member %d", ErrBadSnapshot, v)
		}
		h.pos[v] = i
	}
	for i, walk := range s.Cycles {
		if len(walk) != len(h.order) {
			return nil, fmt.Errorf("%w: cycle %d walks %d of %d members", ErrBadSnapshot, i, len(walk), len(h.order))
		}
		h.succ[i] = make(map[graph.NodeID]graph.NodeID, len(walk))
		h.pred[i] = make(map[graph.NodeID]graph.NodeID, len(walk))
		for j, v := range walk {
			if _, member := h.pos[v]; !member {
				return nil, fmt.Errorf("%w: cycle %d visits non-member %d", ErrBadSnapshot, i, v)
			}
			if _, dup := h.succ[i][v]; dup {
				return nil, fmt.Errorf("%w: cycle %d visits %d twice", ErrBadSnapshot, i, v)
			}
			w := walk[(j+1)%len(walk)]
			h.succ[i][v] = w
			h.pred[i][w] = v
		}
	}
	if err := h.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return h, nil
}
