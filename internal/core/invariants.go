package core

import (
	"errors"
	"fmt"

	"github.com/xheal/xheal/internal/graph"
)

// ErrInvariant wraps all invariant-check failures.
var ErrInvariant = errors.New("core: invariant violated")

func violation(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvariant, fmt.Sprintf(format, args...))
}

// CheckInvariants verifies the full internal consistency of the state:
//
//  1. claims and physical edges correspond one-to-one; every claim is black
//     xor colored by at least one live cloud;
//  2. every cloud's claimed edge set matches its maintainer's logical edges,
//     the maintainer is structurally valid, and its members are alive;
//  3. membership maps agree with cloud contents; each node has at most one
//     secondary duty, anchored in a primary cloud it belongs to;
//  4. the degree bound of paper Theorem 2.1 holds for every alive node:
//     deg_G(x) ≤ κ·deg_G′(x) + 2κ;
//  5. deleted nodes are gone from G, retained in G′, and appear in no cloud.
//
// It is a sweep of the per-item predicates CheckInvariantsSampled rotates
// through (invariants_sampled.go) over every edge, alive node, cloud and
// baseline node, plus the checks on records that hang off no such item: a
// claim without a physical edge, a membership or bridge entry for a dead
// node, a deleted node missing from G′. It returns nil when all hold.
func (s *State) CheckInvariants() error {
	for _, e := range s.g.Edges() {
		if err := s.checkEdgeInvariant(e); err != nil {
			return err
		}
	}
	// Every physical edge has a claim, so a claim without a physical edge
	// exists iff the counts differ; only then is it worth finding.
	if len(s.claims) != s.g.NumEdges() {
		for e := range s.claims {
			if !s.g.HasEdge(e.U, e.V) {
				return violation("claim on %v without a physical edge", e)
			}
		}
	}
	for _, n := range s.g.Nodes() {
		if err := s.checkNodeInvariant(n); err != nil {
			return err
		}
	}
	for n := range s.nodePrimaries {
		if !s.g.HasNode(n) {
			return violation("membership entry for dead node %d", n)
		}
	}
	for n := range s.bridgeLinks {
		if !s.g.HasNode(n) {
			return violation("bridge link for dead node %d", n)
		}
	}
	for id := range s.clouds {
		if err := s.checkCloudInvariant(id); err != nil {
			return err
		}
	}
	for n := range s.deleted {
		if !s.gp.HasNode(n) {
			return violation("deleted node %d missing from G'", n)
		}
	}
	var err error
	s.gp.ForEachNode(func(n graph.NodeID) {
		if err == nil {
			err = s.checkBaselineInvariant(n)
		}
	})
	return err
}

// DegreeBound returns the paper's Theorem 2.1 bound κ·deg_G′(x) + 2κ for x.
func (s *State) DegreeBound(x graph.NodeID) int {
	return s.kappa*s.gp.Degree(x) + 2*s.kappa
}
