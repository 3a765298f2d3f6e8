package dist

import (
	"fmt"
	"slices"

	"github.com/xheal/xheal/internal/graph"
)

// node is one protocol participant's state: a local view of its incident
// edges, updated exclusively by the messages it receives (and the edges it
// initiated itself), and its role in the repair under way. The engine's
// round loop calls handle on each recipient in turn.
type node struct {
	id   graph.NodeID
	rank int64 // private random leader rank (options.WithSeed derived)

	// view is the node's belief about its neighbor set, sorted. It is the
	// node's own copy, never the graph's storage, so ValidateLocalViews
	// compares two independent records.
	view []graph.NodeID

	// wound is the state of the repair the node is currently part of.
	wound *woundState
}

// woundState tracks one node's role in the repair of a single deletion.
type woundState struct {
	victim graph.NodeID
	roster []graph.NodeID // sorted wound membership
	idx    int            // this node's bracket position in roster

	pendingChildren int          // aggregates still expected from below
	bestRank        int64        // best (lowest) leader rank seen
	bestID          graph.NodeID // its holder
	reports         []report     // neighborhoods gathered from the subtree
}

// handle processes one message and returns the messages to send next round.
// The engine hands the elected leader its repair plan.
func (n *node) handle(e *Engine, m message) []message {
	switch m.kind {
	case msgHello:
		n.link(m.subject)
		return nil
	case msgDown:
		return n.onDown(e, m)
	case msgAggregate:
		if n.wound == nil {
			panic(fmt.Sprintf("dist: node %d received an aggregate outside a wound", n.id))
		}
		return n.onAggregate(e, m)
	case msgGrant:
		if n.wound == nil {
			panic(fmt.Sprintf("dist: node %d received a grant outside a wound", n.id))
		}
		// The root gathered every wound member's report (including this
		// node's own); the granted set replaces the local partial one.
		n.wound.reports = m.reports
		return n.lead(e)
	case msgEdgeUpdate:
		n.apply(m.add, m.drop)
		return nil
	}
	return nil
}

// onDown starts this node's participation in the wound: drop the victim from
// the view, take a bracket position over the roster, and begin the election
// convergecast (leaves fire immediately).
func (n *node) onDown(e *Engine, m message) []message {
	n.unlink(m.subject)
	w := &woundState{
		victim:   m.subject,
		roster:   m.roster,
		idx:      -1,
		bestRank: n.rank,
		bestID:   n.id,
	}
	for i, id := range m.roster {
		if id == n.id {
			w.idx = i
			break
		}
	}
	k := len(w.roster)
	for _, child := range []int{2*w.idx + 1, 2*w.idx + 2} {
		if child < k {
			w.pendingChildren++
		}
	}
	w.reports = []report{{node: n.id, nbrs: slices.Clone(n.view)}}
	n.wound = w
	if w.pendingChildren == 0 {
		return n.finishAggregate(e)
	}
	return nil
}

// onAggregate folds a child's subtree result into this node's and, when the
// last child has reported, forwards up the bracket (or resolves the election
// at the root).
func (n *node) onAggregate(e *Engine, m message) []message {
	w := n.wound
	if m.rank < w.bestRank || (m.rank == w.bestRank && m.subject < w.bestID) {
		w.bestRank, w.bestID = m.rank, m.subject
	}
	w.reports = append(w.reports, m.reports...)
	w.pendingChildren--
	if w.pendingChildren > 0 {
		return nil
	}
	return n.finishAggregate(e)
}

// finishAggregate sends this subtree's result to the bracket parent, or, at
// the root, grants leadership to the best-ranked member. Wound state stays
// until the engine closes the wound: any member — even one whose aggregate
// already went up — may still be granted leadership.
func (n *node) finishAggregate(e *Engine) []message {
	w := n.wound
	if w.idx > 0 {
		parent := w.roster[(w.idx-1)/2]
		return []message{{
			from: n.id, to: parent, kind: msgAggregate,
			subject: w.bestID, rank: w.bestRank, reports: w.reports,
		}}
	}
	if w.bestID == n.id {
		return n.lead(e)
	}
	return []message{{
		from: n.id, to: w.bestID, kind: msgGrant, reports: w.reports,
	}}
}

// lead is the elected leader's healing step: check the gathered wound state,
// compute the repair (Algorithm 3.1 on that state, delegated to
// internal/core) and disseminate one edge update per affected node. The
// leader's own changes apply directly.
func (n *node) lead(e *Engine) []message {
	w := n.wound
	// The gathered reports are the state the leader heals from: every wound
	// member must have reported, and none may still list the victim (its
	// detection round precedes the election). A violation is a protocol bug.
	if len(w.reports) != len(w.roster) {
		panic(fmt.Sprintf("dist: leader %d holds %d reports for a %d-member wound",
			n.id, len(w.reports), len(w.roster)))
	}
	for _, r := range w.reports {
		for _, nb := range r.nbrs {
			if nb == w.victim {
				panic(fmt.Sprintf("dist: wound member %d reported deleted node %d as a neighbor",
					r.node, w.victim))
			}
		}
	}
	plan := e.planFor(w.victim)
	recipients := make([]graph.NodeID, 0, len(plan.updates))
	for id := range plan.updates {
		recipients = append(recipients, id)
	}
	slices.Sort(recipients)
	var out []message
	for _, id := range recipients {
		up := plan.updates[id]
		if id == n.id {
			n.apply(up.add, up.drop)
			continue
		}
		out = append(out, message{
			from: n.id, to: id, kind: msgEdgeUpdate,
			add: up.add, drop: up.drop,
		})
	}
	return out
}

// apply commits an edge update to the local view.
func (n *node) apply(add, drop []graph.NodeID) {
	for _, w := range add {
		n.link(w)
	}
	for _, w := range drop {
		n.unlink(w)
	}
}

// link adds w to the local view; a known neighbor is left as is.
func (n *node) link(w graph.NodeID) {
	if i, found := slices.BinarySearch(n.view, w); !found {
		n.view = slices.Insert(n.view, i, w)
	}
}

// unlink removes w from the local view, if present.
func (n *node) unlink(w graph.NodeID) {
	if i, found := slices.BinarySearch(n.view, w); found {
		n.view = slices.Delete(n.view, i, i+1)
	}
}
