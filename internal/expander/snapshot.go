package expander

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/hgraph"
	"github.com/xheal/xheal/internal/wire"
)

// ErrBadSnapshot wraps all snapshot-decode failures.
var ErrBadSnapshot = errors.New("expander: malformed snapshot")

// Snapshot is the serializable form of a Maintainer: the member set, the
// rebuild watermark, and — in H-graph mode — the exact wiring. Clique mode
// needs no wiring (Edges derives it from the members).
type Snapshot struct {
	Kappa   int
	Members []graph.NodeID // ascending
	Peak    int
	H       *hgraph.Snapshot // nil in clique mode
}

// Encode appends the snapshot's binary form to w.
func (s *Snapshot) Encode(w *wire.Writer) {
	w.Int(int64(s.Kappa))
	w.Nodes(s.Members)
	w.Int(int64(s.Peak))
	w.Bool(s.H != nil)
	if s.H != nil {
		s.H.Encode(w)
	}
}

// DecodeSnapshot reads what Encode wrote. Failures stay in r (see
// wire.Reader.Err); Restore validates the content.
func DecodeSnapshot(r *wire.Reader) *Snapshot {
	s := &Snapshot{Kappa: int(r.Int()), Members: r.Nodes(), Peak: int(r.Int())}
	if r.Bool() {
		s.H = hgraph.DecodeSnapshot(r)
	}
	return s
}

// Snapshot captures the full internal state of m.
func (m *Maintainer) Snapshot() *Snapshot {
	s := &Snapshot{
		Kappa:   m.kappa,
		Members: append([]graph.NodeID(nil), m.Members()...),
		Peak:    m.peak,
	}
	if m.h != nil {
		s.H = m.h.Snapshot()
	}
	return s
}

// Restore rebuilds a Maintainer from a snapshot, resuming random rewiring
// from rng (the restored shared healing stream).
func Restore(s *Snapshot, rng *rand.Rand) (*Maintainer, error) {
	if s.Kappa < MinKappa || s.Kappa%2 != 0 {
		return nil, fmt.Errorf("%w: kappa=%d", ErrBadSnapshot, s.Kappa)
	}
	if len(s.Members) == 0 {
		return nil, fmt.Errorf("%w: empty member set", ErrBadSnapshot)
	}
	m := &Maintainer{
		kappa:   s.Kappa,
		members: make(map[graph.NodeID]struct{}, len(s.Members)),
		rng:     rng,
		peak:    s.Peak,
	}
	for _, v := range s.Members {
		if _, dup := m.members[v]; dup {
			return nil, fmt.Errorf("%w: duplicate member %d", ErrBadSnapshot, v)
		}
		m.members[v] = struct{}{}
	}
	if s.H != nil {
		h, err := hgraph.Restore(s.H, rng)
		if err != nil {
			return nil, err
		}
		m.h = h
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return m, nil
}
