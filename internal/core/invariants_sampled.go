package core

import "github.com/xheal/xheal/internal/graph"

// Sampled invariant checking: CheckInvariants is O(n + m + clouds) per call,
// which a serving daemon cannot afford inside its apply loop at 10⁵–10⁶
// nodes. CheckInvariantsSampled checks a budgeted window of each category —
// physical edges, alive nodes, clouds, baseline nodes — per call, advancing
// a rotating cursor so consecutive calls amortize a full sweep. Every call
// additionally runs the O(1) global checks (claim/edge count agreement), so
// a gross divergence is caught immediately and any pointwise violation is
// caught within ⌈category size / budget⌉ calls.

// invCursors holds the rotating sample positions. The cursors index the
// sorted cached views (g.Nodes(), g.Edges(), Clouds(), gp.Nodes()), so a
// full rotation visits every item even as the sets churn; they are
// bookkeeping only and take no part in Snapshot identity.
type invCursors struct {
	node, edge, cloud, base int
}

// CheckInvariantsSampled verifies a budgeted sample of the state's
// invariants: up to budget items of each category (physical edges, alive
// nodes, clouds, baseline nodes) starting at a rotating cursor, plus the
// O(1) whole-state checks on every call. budget ≤ 0 falls back to the full
// CheckInvariants sweep. The violation vocabulary is CheckInvariants's.
func (s *State) CheckInvariantsSampled(budget int) error {
	if budget <= 0 {
		return s.CheckInvariants()
	}
	// O(1) global agreement: claims and physical edges correspond
	// one-to-one iff every edge has a claim (sampled below, complete per
	// rotation) and the counts match.
	if nc, ne := len(s.claims), s.g.NumEdges(); nc != ne {
		return violation("claim count %d != physical edge count %d", nc, ne)
	}
	var err error
	if s.inv.edge, err = sampleRing(s.g.Edges(), s.inv.edge, budget, s.checkEdgeInvariant); err != nil {
		return err
	}
	if s.inv.node, err = sampleRing(s.g.Nodes(), s.inv.node, budget, s.checkNodeInvariant); err != nil {
		return err
	}
	if s.inv.cloud, err = sampleRing(s.Clouds(), s.inv.cloud, budget, s.checkCloudInvariant); err != nil {
		return err
	}
	s.inv.base, err = sampleRing(s.gp.Nodes(), s.inv.base, budget, s.checkBaselineInvariant)
	return err
}

// sampleRing checks up to budget items of view starting at cursor, wrapping
// around, and returns the advanced cursor. On a violation the cursor stops
// at the offending item, so the next call reports it again.
func sampleRing[T any](view []T, cursor, budget int, check func(T) error) (int, error) {
	n := len(view)
	if n == 0 {
		return 0, nil
	}
	budget = min(budget, n)
	cursor %= n
	for i := 0; i < budget; i++ {
		if err := check(view[(cursor+i)%n]); err != nil {
			return (cursor + i) % n, err
		}
	}
	return (cursor + budget) % n, nil
}

// The per-item predicates below are the invariants themselves, one item at
// a time: the sampled checker visits a window of each category per call and
// CheckInvariants visits every item.

func (s *State) checkEdgeInvariant(e graph.Edge) error {
	cl, ok := s.claims[e]
	if !ok {
		return violation("physical edge %v has no claim", e)
	}
	if cl.empty() {
		return violation("edge %v has an empty claim", e)
	}
	if cl.black && len(cl.colors) > 0 {
		return violation("edge %v is both black and colored", e)
	}
	for _, color := range cl.colors {
		c, live := s.clouds[color]
		if !live {
			return violation("edge %v claimed by dead cloud %d", e, color)
		}
		if _, has := c.edges[e]; !has {
			return violation("edge %v claims cloud %d which does not list it", e, color)
		}
	}
	return nil
}

func (s *State) checkNodeInvariant(n graph.NodeID) error {
	if dG, bound := s.g.Degree(n), s.DegreeBound(n); dG > bound {
		return violation("degree bound: node %d has deg_G=%d > κ·deg_G'=%d·%d + 2κ = %d",
			n, dG, s.kappa, s.gp.Degree(n), bound)
	}
	for id := range s.nodePrimaries[n] {
		c, ok := s.clouds[id]
		if !ok {
			return violation("node %d lists dead cloud %d", n, id)
		}
		if c.kind != Primary {
			return violation("node %d lists non-primary cloud %d as primary", n, id)
		}
		if !c.contains(n) {
			return violation("node %d lists cloud %d which lacks it", n, id)
		}
	}
	if link, ok := s.bridgeLinks[n]; ok {
		f, live := s.clouds[link.secondary]
		if !live {
			return violation("node %d bridges dead secondary %d", n, link.secondary)
		}
		if f.kind != Secondary {
			return violation("node %d bridge target %d is not secondary", n, link.secondary)
		}
		if !f.contains(n) {
			return violation("node %d not a member of its secondary %d", n, link.secondary)
		}
		p, live := s.clouds[link.primary]
		if !live {
			return violation("node %d anchors dead primary %d", n, link.primary)
		}
		if p.kind != Primary {
			return violation("node %d anchor %d is not primary", n, link.primary)
		}
		if !p.contains(n) {
			return violation("node %d not a member of its anchored primary %d", n, link.primary)
		}
	}
	return nil
}

func (s *State) checkCloudInvariant(id ColorID) error {
	c, ok := s.clouds[id]
	if !ok {
		return nil // raced with Clouds() view; next rotation re-reads
	}
	if c.id != id {
		return violation("cloud registry key %d != cloud id %d", id, c.id)
	}
	if c.kind != Primary && c.kind != Secondary {
		return violation("cloud %d has invalid kind %d", id, int(c.kind))
	}
	if c.size() == 0 {
		return violation("cloud %d is empty but registered", id)
	}
	if err := c.m.Validate(); err != nil {
		return violation("cloud %d maintainer: %v", id, err)
	}
	for _, n := range c.members() {
		if !s.g.HasNode(n) {
			return violation("cloud %d member %d is not alive", id, n)
		}
		if _, dead := s.deleted[n]; dead {
			return violation("cloud %d contains deleted node %d", id, n)
		}
		switch c.kind {
		case Primary:
			set, ok := s.nodePrimaries[n]
			if !ok {
				return violation("cloud %d member %d missing membership entry", id, n)
			}
			if _, in := set[id]; !in {
				return violation("cloud %d member %d does not list the cloud", id, n)
			}
		case Secondary:
			link, ok := s.bridgeLinks[n]
			if !ok || link.secondary != id {
				return violation("secondary %d member %d lacks a matching bridge link", id, n)
			}
		}
	}
	want := c.m.EdgeSet()
	if len(want) != len(c.edges) {
		return violation("cloud %d claims %d edges, maintainer wants %d", id, len(c.edges), len(want))
	}
	for e := range want {
		if _, ok := c.edges[e]; !ok {
			return violation("cloud %d missing claim on %v", id, e)
		}
		cl, ok := s.claims[e]
		if !ok {
			return violation("cloud %d edge %v has no physical claim", id, e)
		}
		if !cl.hasColor(id) {
			return violation("cloud %d edge %v claim does not list the cloud", id, e)
		}
	}
	return nil
}

// checkBaselineInvariant covers the deleted-node category: G′ holds every
// node ever inserted, so a rotation over gp.Nodes() deterministically
// visits all deleted nodes (unlike ranging the deleted map).
func (s *State) checkBaselineInvariant(n graph.NodeID) error {
	_, dead := s.deleted[n]
	if !dead {
		if !s.g.HasNode(n) {
			return violation("baseline node %d neither alive nor deleted", n)
		}
		return nil
	}
	if s.g.HasNode(n) {
		return violation("deleted node %d still alive", n)
	}
	if _, ok := s.nodePrimaries[n]; ok {
		return violation("deleted node %d has primary memberships", n)
	}
	if _, ok := s.bridgeLinks[n]; ok {
		return violation("deleted node %d has a bridge link", n)
	}
	return nil
}
