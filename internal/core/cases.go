package core

import (
	"cmp"
	"slices"

	"github.com/xheal/xheal/internal/expander"
	"github.com/xheal/xheal/internal/graph"
)

// caseAllBlack handles paper Case 1: every deleted edge was black. A new
// primary cloud — κ-regular expander, or clique when small — is constructed
// among the deleted node's neighbors. Fewer than two neighbors need no
// wiring (paper: a degree-1 node "is just dropped").
func (s *State) caseAllBlack(blackNbrs []graph.NodeID) {
	if len(blackNbrs) < 2 {
		return
	}
	s.makePrimaryCloud(blackNbrs)
}

// casePrimaryOnly handles paper Case 2.1: the deleted node v belonged to
// primary clouds only. Each damaged primary cloud is restructured, then a
// secondary cloud is built over one free node per affected group — the
// groups being the damaged primaries plus a singleton primary per black
// neighbor of v.
func (s *State) casePrimaryOnly(v graph.NodeID, primaries []ColorID, blackNbrs []graph.NodeID) {
	groups := s.fixPrimaries(v, primaries)
	groups = append(groups, s.singletonClouds(blackNbrs)...)
	s.makeSecondary(groups)
}

// caseSecondaryBridge handles paper Case 2.2: the deleted node v was a
// bridge node anchoring primary cloud link.primary inside secondary cloud
// link.secondary. All damaged primaries are restructured, the secondary is
// re-anchored with a fresh free node (or all its primaries are combined when
// none exists), and the primaries of v left uncovered by the secondary are
// joined by a new secondary cloud.
//
// Deviation (docs/ARCHITECTURE.md, "Design deviations" item 1): the new secondary group additionally
// includes the re-anchored cloud, so the uncovered primaries stay connected
// to the rest of the network even when v was their only attachment.
func (s *State) caseSecondaryBridge(v graph.NodeID, link bridgeLink, primaries []ColorID, blackNbrs []graph.NodeID) {
	groups := s.fixPrimaries(v, primaries)

	// Restructure the secondary cloud F: remove v.
	var anchorGroup *cloud // the cloud that keeps the uncovered groups attached
	f, fAlive := s.clouds[link.secondary]
	if fAlive {
		s.removeFromCloud(f, v)
		if f.size() == 0 {
			s.dropCloud(f)
			fAlive = false
		} else {
			s.reconcileCloud(f)
		}
	}
	if fAlive {
		anchorGroup = s.fixSecondary(f, link.primary)
		if _, still := s.clouds[f.id]; !still {
			// fixSecondary combined F's primaries and dissolved F; the
			// combined cloud (returned) is the attachment point.
			fAlive = false
		}
	}
	// A secondary with fewer than two members connects nothing: dissolve it
	// and let its remaining anchors join the new secondary below. Without
	// this the lone anchor could be stranded when F held its only edge.
	var extras []*cloud
	if fAlive && f.size() < 2 {
		for _, m := range f.members() {
			l, ok := s.bridgeLinks[m]
			if !ok || l.secondary != f.id {
				continue
			}
			delete(s.bridgeLinks, m)
			if p, live := s.clouds[l.primary]; live {
				extras = append(extras, p)
			}
		}
		s.dropCloud(f)
		fAlive = false
	}
	// If the deleted bridge's own primary vanished with it, the new
	// secondary must still be tied to F's side of the network: anchor it at
	// any primary cloud F connects.
	if anchorGroup == nil && fAlive {
		if anchored := s.primariesAnchoredIn(f); len(anchored) > 0 {
			anchorGroup = anchored[0]
		}
	}

	// Which of v's primaries are now covered by F (anchored via a live
	// bridge)? The rest need a new secondary.
	covered := make(map[ColorID]struct{})
	if fAlive {
		for _, m := range f.members() {
			if l, ok := s.bridgeLinks[m]; ok && l.secondary == f.id {
				covered[l.primary] = struct{}{}
			}
		}
	}
	var uncovered []*cloud
	for _, c := range groups {
		if _, ok := covered[c.id]; !ok {
			uncovered = append(uncovered, c)
		}
	}
	uncovered = append(uncovered, extras...)
	uncovered = append(uncovered, s.singletonClouds(blackNbrs)...)
	if len(uncovered) == 0 {
		return
	}
	if anchorGroup != nil {
		if _, alive := s.clouds[anchorGroup.id]; alive && !containsCloud(uncovered, anchorGroup.id) {
			uncovered = append(uncovered, anchorGroup)
		}
	}
	s.makeSecondary(uncovered)
}

// fixSecondary re-anchors secondary cloud f after its bridge for primary
// cloud anchorPrimary was deleted (paper Algorithm 3.5). It returns the
// cloud through which f remains attached — the re-anchored primary, or the
// combined cloud when no free node existed anywhere among f's primaries.
func (s *State) fixSecondary(f *cloud, anchorPrimary ColorID) *cloud {
	ci, ok := s.clouds[anchorPrimary]
	if !ok || ci.size() == 0 {
		// The anchored primary vanished with the deletion; f's remaining
		// anchors keep it consistent.
		return nil
	}
	// Try a free node from Ci itself.
	if z, ok := s.pickFreeNode(ci); ok {
		s.addToSecondary(f, z, ci.id)
		return ci
	}
	// Try sharing a free node from another primary cloud of f into Ci.
	donors := s.primariesAnchoredIn(f)
	if w, ok := s.pickShareable(donors, ci); ok {
		s.shareInto(ci, w)
		s.addToSecondary(f, w, ci.id)
		return ci
	}
	// No free nodes among all of f's primaries: combine them (paper: "all
	// primary clouds of F are combined into one new primary cloud").
	combineSet := donors
	if !containsCloud(combineSet, ci.id) {
		combineSet = append(combineSet, ci)
	}
	combined := s.combine(combineSet)
	return combined
}

// fixPrimaries removes v from each of its primary clouds and rebuilds their
// expanders incrementally (paper Algorithm 3.3). Clouds emptied by the
// removal are dropped. It returns the surviving clouds, in input order.
func (s *State) fixPrimaries(v graph.NodeID, primaries []ColorID) []*cloud {
	out := make([]*cloud, 0, len(primaries))
	for _, id := range primaries {
		c, ok := s.clouds[id]
		if !ok {
			continue
		}
		s.removeFromCloud(c, v)
		if c.size() == 0 {
			s.dropCloud(c)
			continue
		}
		s.reconcileCloud(c)
		out = append(out, c)
	}
	return out
}

// removeFromCloud detaches v from c's maintainer and membership maps without
// reconciling (callers reconcile or drop).
func (s *State) removeFromCloud(c *cloud, v graph.NodeID) {
	if !c.contains(v) {
		return
	}
	// Remove may fail only on non-membership, excluded above.
	_ = c.m.Remove(v)
	if set, ok := s.nodePrimaries[v]; ok {
		delete(set, c.id)
		if len(set) == 0 {
			delete(s.nodePrimaries, v)
		}
	}
}

// makePrimaryCloud wires a fresh primary cloud over the given nodes (paper
// Algorithm 3.2, MakeCloud with Type=primary).
func (s *State) makePrimaryCloud(nodes []graph.NodeID) *cloud {
	m, err := expander.NewMaintainer(s.kappa, nodes, s.rng)
	if err != nil {
		// Unreachable by construction: kappa was validated and callers pass
		// non-empty, duplicate-free member sets.
		panic("core: makePrimaryCloud: " + err.Error())
	}
	c := &cloud{
		id:    s.allocColor(),
		kind:  Primary,
		m:     m,
		edges: make(map[graph.Edge]struct{}),
	}
	s.clouds[c.id] = c
	for _, n := range nodes {
		set, ok := s.nodePrimaries[n]
		if !ok {
			set = make(map[ColorID]struct{}, 1)
			s.nodePrimaries[n] = set
		}
		set[c.id] = struct{}{}
	}
	s.reconcileCloud(c)
	s.stats.PrimaryClouds++
	s.rec.CloudWired(len(nodes))
	return c
}

// singletonClouds wraps each black neighbor in its own one-node primary
// cloud (paper Case 2.1: "consider each of the neighbors as a singleton
// primary cloud and then proceed as above").
func (s *State) singletonClouds(blackNbrs []graph.NodeID) []*cloud {
	out := make([]*cloud, 0, len(blackNbrs))
	for _, w := range blackNbrs {
		if !s.g.HasNode(w) {
			continue
		}
		out = append(out, s.makePrimaryCloud([]graph.NodeID{w}))
	}
	return out
}

// makeSecondary builds a secondary cloud over one free node per group
// (paper Algorithm 3.4). Groups of size ≤ 1 need no connection. When the
// groups cannot each be assigned a distinct free node — even after sharing —
// they are combined into a single primary cloud instead.
func (s *State) makeSecondary(groups []*cloud) {
	groups = liveClouds(s, groups)
	if len(groups) < 2 {
		return
	}
	if s.alwaysCombine {
		s.combine(groups)
		return
	}
	assignment, ok := s.assignFreeNodes(groups)
	if !ok {
		s.combine(groups)
		return
	}
	bridges := make([]graph.NodeID, 0, len(assignment))
	for _, a := range assignment {
		if a.share {
			s.shareInto(a.cloud, a.node)
		}
		bridges = append(bridges, a.node)
	}
	m, err := expander.NewMaintainer(s.kappa, bridges, s.rng)
	if err != nil {
		panic("core: makeSecondary: " + err.Error())
	}
	f := &cloud{
		id:    s.allocColor(),
		kind:  Secondary,
		m:     m,
		edges: make(map[graph.Edge]struct{}),
	}
	s.clouds[f.id] = f
	for _, a := range assignment {
		s.bridgeLinks[a.node] = bridgeLink{primary: a.cloud.id, secondary: f.id}
	}
	s.reconcileCloud(f)
	s.stats.SecondaryClouds++
	s.rec.CloudWired(len(bridges))
}

// addToSecondary inserts bridge z (anchoring primary cloud primaryID) into
// secondary cloud f and rewires it.
func (s *State) addToSecondary(f *cloud, z graph.NodeID, primaryID ColorID) {
	if err := f.m.Add(z); err != nil {
		panic("core: addToSecondary: " + err.Error())
	}
	s.bridgeLinks[z] = bridgeLink{primary: primaryID, secondary: f.id}
	s.reconcileCloud(f)
}

// shareInto adds free node w as a member of primary cloud c (the paper's
// sharing: "adding w to C and forming a new κ-regular expander among the
// remaining nodes of C (including w)"). w is flagged so it is never shared
// again (Lemma 3).
func (s *State) shareInto(c *cloud, w graph.NodeID) {
	if c.contains(w) {
		return
	}
	if err := c.m.Add(w); err != nil {
		panic("core: shareInto: " + err.Error())
	}
	set, ok := s.nodePrimaries[w]
	if !ok {
		set = make(map[ColorID]struct{}, 1)
		s.nodePrimaries[w] = set
	}
	set[c.id] = struct{}{}
	s.sharedOnce[w] = struct{}{}
	s.reconcileCloud(c)
	s.stats.Shares++
}

// combine merges the given primary clouds into one fresh primary cloud over
// the union of their members (paper Case 2.1, the amortized expensive
// operation). Secondary clouds all of whose anchors lie inside the combined
// set are dissolved, freeing their bridges; secondaries with outside anchors
// are kept and their inside anchors re-pointed at the combined cloud
// (docs/ARCHITECTURE.md, "Design deviations" item 3). Returns the new cloud.
func (s *State) combine(groups []*cloud) *cloud {
	groups = liveClouds(s, groups)
	if len(groups) == 0 {
		return nil
	}
	combinedIDs := make(map[ColorID]struct{}, len(groups))
	memberSet := make(map[graph.NodeID]struct{})
	for _, c := range groups {
		combinedIDs[c.id] = struct{}{}
		for _, n := range c.members() {
			memberSet[n] = struct{}{}
		}
	}

	// Find the secondary clouds anchored in any combined cloud.
	touching := make(map[ColorID]*cloud)
	for _, c := range groups {
		for _, n := range c.members() {
			if link, ok := s.bridgeLinks[n]; ok {
				if _, in := combinedIDs[link.primary]; in {
					if f, live := s.clouds[link.secondary]; live {
						touching[f.id] = f
					}
				}
			}
		}
	}

	// Drop the combined primaries' wiring and memberships.
	for _, c := range groups {
		for _, n := range c.members() {
			if set, ok := s.nodePrimaries[n]; ok {
				delete(set, c.id)
				if len(set) == 0 {
					delete(s.nodePrimaries, n)
				}
			}
		}
		s.dropCloud(c)
	}

	// Create the combined cloud before re-pointing so anchors can reference it.
	members := make([]graph.NodeID, 0, len(memberSet))
	for n := range memberSet {
		members = append(members, n)
	}
	slices.Sort(members)
	d := s.makePrimaryCloud(members)
	s.stats.Combines++

	// Dissolve internal secondaries; re-point anchors of external ones.
	for _, f := range touching {
		internal := true
		for _, n := range f.members() {
			link, ok := s.bridgeLinks[n]
			if !ok || link.secondary != f.id {
				continue
			}
			if _, in := combinedIDs[link.primary]; !in {
				internal = false
				break
			}
		}
		if internal {
			// Paper: "all non-free nodes associated with the previous j
			// clouds become free again in the combined cloud."
			for _, n := range f.members() {
				if link, ok := s.bridgeLinks[n]; ok && link.secondary == f.id {
					delete(s.bridgeLinks, n)
				}
			}
			s.dropCloud(f)
			continue
		}
		for _, n := range f.members() {
			link, ok := s.bridgeLinks[n]
			if !ok || link.secondary != f.id {
				continue
			}
			if _, in := combinedIDs[link.primary]; in {
				s.bridgeLinks[n] = bridgeLink{primary: d.id, secondary: f.id}
			}
		}
	}
	return d
}

// primariesAnchoredIn returns the live primary clouds anchored in secondary
// cloud f, ordered by color.
func (s *State) primariesAnchoredIn(f *cloud) []*cloud {
	seen := make(map[ColorID]struct{})
	var out []*cloud
	for _, n := range f.members() {
		link, ok := s.bridgeLinks[n]
		if !ok || link.secondary != f.id {
			continue
		}
		if _, dup := seen[link.primary]; dup {
			continue
		}
		seen[link.primary] = struct{}{}
		if c, live := s.clouds[link.primary]; live {
			out = append(out, c)
		}
	}
	slices.SortFunc(out, func(a, b *cloud) int { return cmp.Compare(a.id, b.id) })
	return out
}

// liveClouds filters groups down to clouds still present in the registry
// with at least one member, preserving order and dropping duplicates. The
// input slice is filtered in place (callers own it and never reuse the
// unfiltered view); group lists are tiny, so dedup is a linear scan.
func liveClouds(s *State, groups []*cloud) []*cloud {
	out := groups[:0]
	for _, c := range groups {
		if c == nil || containsCloud(out, c.id) {
			continue
		}
		if live, ok := s.clouds[c.id]; ok && live == c && c.size() > 0 {
			out = append(out, c)
		}
	}
	return out
}

func containsCloud(list []*cloud, id ColorID) bool {
	for _, c := range list {
		if c.id == id {
			return true
		}
	}
	return false
}
