package expander

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/hgraph"
)

// MinKappa is the smallest supported expander degree parameter.
const MinKappa = 2

// Mode identifies how the current member set is wired.
type Mode int

// Modes. Enums start at 1 so the zero value is invalid (Uber guide).
const (
	// ModeClique wires all pairs; used for groups of size ≤ κ+1.
	ModeClique Mode = iota + 1
	// ModeHGraph wires a random κ-regular H-graph.
	ModeHGraph
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeClique:
		return "clique"
	case ModeHGraph:
		return "hgraph"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Sentinel errors.
var (
	ErrBadKappa  = errors.New("expander: kappa must be an even integer >= 2")
	ErrMember    = errors.New("expander: node already a member")
	ErrNotMember = errors.New("expander: node is not a member")
	ErrEmpty     = errors.New("expander: member set is empty")
)

// Maintainer keeps an expander-or-clique wiring over a mutable member set.
// It is purely logical: it reports the edge set it wants, and the caller
// (the cloud layer) reconciles that with the physical graph.
//
// Not safe for concurrent use.
type Maintainer struct {
	kappa   int
	members map[graph.NodeID]struct{}
	h       *hgraph.H // nil in clique mode
	rng     *rand.Rand
	peak    int // peak size since last full H-graph rebuild

	// view caches the sorted member slice served by Members; nil when a
	// membership change has invalidated it.
	view []graph.NodeID
}

// NewMaintainer builds the initial wiring over members (at least one node).
// kappa must be an even integer ≥ 2 so that the H-graph realizes exactly
// κ = 2d.
func NewMaintainer(kappa int, members []graph.NodeID, rng *rand.Rand) (*Maintainer, error) {
	if kappa < MinKappa || kappa%2 != 0 {
		return nil, fmt.Errorf("new maintainer with kappa=%d: %w", kappa, ErrBadKappa)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("new maintainer: %w", ErrEmpty)
	}
	m := &Maintainer{
		kappa:   kappa,
		members: make(map[graph.NodeID]struct{}, len(members)),
		rng:     rng,
	}
	for _, v := range members {
		if _, dup := m.members[v]; dup {
			return nil, fmt.Errorf("new maintainer: node %d: %w", v, ErrMember)
		}
		m.members[v] = struct{}{}
	}
	if err := m.rebuild(); err != nil {
		return nil, err
	}
	return m, nil
}

// Kappa returns the degree parameter.
func (m *Maintainer) Kappa() int { return m.kappa }

// Size returns the number of members.
func (m *Maintainer) Size() int { return len(m.members) }

// Mode returns the current wiring mode.
func (m *Maintainer) Mode() Mode {
	if m.h != nil {
		return ModeHGraph
	}
	return ModeClique
}

// Contains reports whether v is a member.
func (m *Maintainer) Contains(v graph.NodeID) bool {
	_, ok := m.members[v]
	return ok
}

// Members returns the member set in ascending order. The slice is a cached
// read-only view: callers must not modify it, and it is only valid until the
// next Add/Remove/Rebuild (copy to retain).
func (m *Maintainer) Members() []graph.NodeID {
	if m.view == nil {
		view := make([]graph.NodeID, 0, len(m.members))
		for v := range m.members {
			view = append(view, v)
		}
		slices.Sort(view)
		m.view = view
	}
	return m.view
}

// Add inserts a new member and rewires incrementally (H-graph INSERT) or by
// clique extension; crossing the size threshold upgrades clique → H-graph.
func (m *Maintainer) Add(v graph.NodeID) error {
	if m.Contains(v) {
		return fmt.Errorf("add %d: %w", v, ErrMember)
	}
	m.members[v] = struct{}{}
	m.view = nil
	if len(m.members) > m.peak {
		m.peak = len(m.members)
	}
	if m.h == nil {
		if len(m.members) > m.kappa+1 {
			return m.rebuild() // upgrade to H-graph
		}
		return nil // clique grows implicitly; Edges() reflects it
	}
	return m.h.Insert(v)
}

// Remove deletes a member and rewires incrementally (H-graph DELETE) or by
// clique shrink; crossing the size threshold downgrades H-graph → clique,
// and losing half the peak size triggers a full rebuild.
func (m *Maintainer) Remove(v graph.NodeID) error {
	if !m.Contains(v) {
		return fmt.Errorf("remove %d: %w", v, ErrNotMember)
	}
	delete(m.members, v)
	m.view = nil
	if m.h == nil {
		return nil
	}
	if len(m.members) <= m.kappa+1 {
		m.h = nil // downgrade to clique
		m.peak = len(m.members)
		return nil
	}
	if err := m.h.Delete(v); err != nil {
		return err
	}
	if 2*len(m.members) <= m.peak {
		// Half the nodes lost since last rebuild: refresh the randomness
		// (paper §5 last paragraph) so Theorem 4's w.h.p. bound keeps holding.
		return m.rebuild()
	}
	return nil
}

// Rebuild rewires the current member set from scratch.
func (m *Maintainer) Rebuild() error { return m.rebuild() }

func (m *Maintainer) rebuild() error {
	m.peak = len(m.members)
	if len(m.members) <= m.kappa+1 {
		m.h = nil
		return nil
	}
	h, err := hgraph.New(m.kappa/2, m.Members(), m.rng)
	if err != nil {
		return fmt.Errorf("rebuild expander: %w", err)
	}
	m.h = h
	return nil
}

// Edges returns the logical edge set of the current wiring in canonical
// order: all pairs in clique mode, the H-graph's simple edges otherwise.
func (m *Maintainer) Edges() []graph.Edge {
	if m.h != nil {
		return m.h.Edges()
	}
	members := m.Members()
	if len(members) < 2 {
		return nil
	}
	out := make([]graph.Edge, 0, len(members)*(len(members)-1)/2)
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			out = append(out, graph.Edge{U: members[i], V: members[j]})
		}
	}
	return out
}

// EdgeSet returns the logical edges as a set, for efficient diffing by the
// cloud layer.
func (m *Maintainer) EdgeSet() map[graph.Edge]struct{} {
	edges := m.Edges()
	out := make(map[graph.Edge]struct{}, len(edges))
	for _, e := range edges {
		out[e] = struct{}{}
	}
	return out
}

// Validate checks internal consistency (H-graph structure, mode/threshold
// agreement). Used by tests and the harness invariant checker.
func (m *Maintainer) Validate() error {
	if m.h == nil {
		if len(m.members) > m.kappa+1 {
			return fmt.Errorf("expander: %d members in clique mode exceeds kappa+1=%d", len(m.members), m.kappa+1)
		}
		return nil
	}
	if len(m.members) <= m.kappa+1 {
		return fmt.Errorf("expander: %d members in hgraph mode at/below kappa+1=%d", len(m.members), m.kappa+1)
	}
	if m.h.Size() != len(m.members) {
		return fmt.Errorf("expander: hgraph size %d != member count %d", m.h.Size(), len(m.members))
	}
	for v := range m.members {
		if !m.h.Contains(v) {
			return fmt.Errorf("expander: member %d missing from hgraph", v)
		}
	}
	return m.h.Validate()
}

// BuildEdges is a one-shot helper: the edge set of a κ-regular expander (or
// clique) over the given nodes, as a leader in the distributed protocol
// would construct locally (paper §5, Case 1).
func BuildEdges(kappa int, nodes []graph.NodeID, rng *rand.Rand) ([]graph.Edge, error) {
	m, err := NewMaintainer(kappa, nodes, rng)
	if err != nil {
		return nil, err
	}
	return m.Edges(), nil
}
