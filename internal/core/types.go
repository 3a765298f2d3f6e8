package core

import (
	"errors"
	"fmt"
	"slices"

	"github.com/xheal/xheal/internal/expander"
	"github.com/xheal/xheal/internal/graph"
)

// ColorID identifies an edge color. Black is the zero value; every cloud
// gets a unique non-zero color (the paper suggests the deleted node's ID;
// we use a monotone counter, which is equivalent and collision-free).
type ColorID int

// Black is the color of original and adversary-inserted edges.
const Black ColorID = 0

// CloudKind distinguishes primary from secondary expander clouds.
type CloudKind int

// Cloud kinds. The paper renders primaries as shades of red and secondaries
// as shades of orange; the kind plays exactly that role.
const (
	// Primary clouds replace a deleted node among its neighbors (Case 1) or
	// are the restructured clouds the deleted node belonged to (Case 2).
	Primary CloudKind = iota + 1
	// Secondary clouds connect bridge nodes of several primary clouds
	// (Case 2.1/2.2).
	Secondary
)

// String implements fmt.Stringer.
func (k CloudKind) String() string {
	switch k {
	case Primary:
		return "primary"
	case Secondary:
		return "secondary"
	}
	return fmt.Sprintf("CloudKind(%d)", int(k))
}

// Sentinel errors.
var (
	ErrNodeExists   = errors.New("core: node already exists")
	ErrNodeMissing  = errors.New("core: node does not exist or was deleted")
	ErrBadNeighbor  = errors.New("core: insertion neighbor is not alive")
	ErrBadKappa     = errors.New("core: kappa must be an even integer >= 2")
	ErrSelfInsert   = errors.New("core: node cannot neighbor itself")
	ErrNilGraph     = errors.New("core: initial graph is nil")
	ErrReusedNodeID = errors.New("core: node IDs cannot be reused after deletion")
	// ErrPoisoned marks a State fail-stopped by a post-validation batch
	// failure: the state may be half applied, so it refuses further use.
	// See ApplyBatch's failure contract.
	ErrPoisoned = errors.New("core: state poisoned by failed batch apply")
)

// cloud is one expander cloud: a color, a kind, and the maintained wiring.
type cloud struct {
	id   ColorID
	kind CloudKind
	m    *expander.Maintainer
	// edges is the set of edges this cloud currently claims in the physical
	// graph; reconciled against m.EdgeSet() after every membership change.
	edges map[graph.Edge]struct{}
}

func (c *cloud) size() int { return c.m.Size() }

func (c *cloud) members() []graph.NodeID { return c.m.Members() }

func (c *cloud) contains(v graph.NodeID) bool { return c.m.Contains(v) }

// bridgeLink records the secondary duty of a bridge node: which primary
// cloud it represents (anchors) inside which secondary cloud. A node has at
// most one link — the paper's "any (bridge) node of a primary cloud can
// belong to at most one secondary cloud".
type bridgeLink struct {
	primary   ColorID
	secondary ColorID
}

// edgeClaim is the ownership record of one physical edge. Exactly one of
// black / non-empty colors holds: a cloud claim absorbs the black claim
// (paper's re-coloring), and the edge is removed when all claims are gone.
//
// Claims are stored by value in the claims map and colors is a small sorted
// slice: an edge rarely carries more than two colors, so this costs one
// allocation per claimed edge where a per-claim map cost three — claim churn
// is the allocation hot spot of every repair.
type edgeClaim struct {
	black  bool
	colors []ColorID // ascending; nil while black
}

func (c edgeClaim) empty() bool { return !c.black && len(c.colors) == 0 }

// hasColor reports whether the claim lists the given cloud color.
func (c edgeClaim) hasColor(color ColorID) bool {
	_, found := slices.BinarySearch(c.colors, color)
	return found
}

// withColor returns the claim with color added (absorbing any black claim).
func (c edgeClaim) withColor(color ColorID) edgeClaim {
	i, found := slices.BinarySearch(c.colors, color)
	if !found {
		c.colors = slices.Insert(c.colors, i, color)
	}
	c.black = false
	return c
}

// withoutColor returns the claim with color removed.
func (c edgeClaim) withoutColor(color ColorID) edgeClaim {
	if i, found := slices.BinarySearch(c.colors, color); found {
		c.colors = slices.Delete(c.colors, i, i+1)
	}
	return c
}

// Stats counts the healing work performed, for the cost experiments.
type Stats struct {
	// Insertions and Deletions count adversarial events processed.
	Insertions int
	Deletions  int
	// HealEdgesAdded / HealEdgesRemoved count physical edge changes made by
	// the healing algorithm (excluding edges removed by the adversary's node
	// deletions themselves).
	HealEdgesAdded   int
	HealEdgesRemoved int
	// PrimaryClouds / SecondaryClouds count cloud creations.
	PrimaryClouds   int
	SecondaryClouds int
	// Combines counts the expensive cloud-combination events the paper
	// amortizes; Shares counts free-node sharing events.
	Combines int
	Shares   int
}
