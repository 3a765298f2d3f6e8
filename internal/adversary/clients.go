package adversary

import (
	"math/rand"

	"github.com/xheal/xheal/internal/graph"
)

// The view-driven adversaries in this package model the paper's omniscient
// attacker: they inspect the whole healed topology before every move. A
// maintenance daemon's clients cannot do that — many of them act at once and
// none sees the coalesced state — so ClientStream generates adversarial
// churn from purely client-local knowledge: the nodes this client itself
// inserted plus a fixed set of anchor nodes it was told about at connect
// time. Streams with disjoint namespaces and delete-only-your-own behavior
// never conflict with each other, no matter how their events interleave,
// which is exactly what internal/server's tests need to drive a concurrent
// server at full speed while the run stays verifiable.

// ClientStreamBase is the start of the client-stream ID space. Each client
// owns the range [base+client·stride, base+(client+1)·stride); the space is
// far above the view-driven adversaries' own allocator (1<<20) so the two
// kinds of load can share a network.
const (
	ClientStreamBase   graph.NodeID = 1 << 30
	ClientStreamStride graph.NodeID = 1 << 20
)

// ClientStream generates one client's event stream against a live
// maintenance service. Events are valid by construction provided the stream
// is driven sequentially (submit an event, wait for it to apply, then ask
// for the next) and the anchors are never deleted: insertions use fresh IDs
// from the client's private namespace and attach only to anchors or to the
// client's own live nodes; deletions target only the client's own nodes.
type ClientStream struct {
	rng        *rand.Rand
	anchors    []graph.NodeID
	own        []graph.NodeID
	next       graph.NodeID
	deleteBias float64
	maxAttach  int
}

// NewClientStream returns the event stream for one concurrent client.
// client numbers its namespace; anchors are initial-topology nodes that no
// client ever deletes; deleteBias in [0,1) is the probability of deleting
// one of the client's own earlier insertions instead of inserting.
func NewClientStream(client int, anchors []graph.NodeID, deleteBias float64, maxAttach int, seed int64) *ClientStream {
	if maxAttach < 1 {
		maxAttach = 1
	}
	return &ClientStream{
		rng:        rand.New(rand.NewSource(seed ^ int64(client)<<17)),
		anchors:    append([]graph.NodeID(nil), anchors...),
		next:       ClientStreamBase + graph.NodeID(client)*ClientStreamStride,
		deleteBias: deleteBias,
		maxAttach:  maxAttach,
	}
}

// Next returns the stream's next event. The stream assumes every returned
// event is applied before Next is called again; Owns reports the live set
// that assumption implies.
func (c *ClientStream) Next() Event {
	if len(c.own) > 0 && c.rng.Float64() < c.deleteBias {
		i := c.rng.Intn(len(c.own))
		victim := c.own[i]
		c.own[i] = c.own[len(c.own)-1]
		c.own = c.own[:len(c.own)-1]
		return Event{Kind: Delete, Node: victim}
	}
	// Attach to a uniform sample of anchors ∪ own. Connectivity to the
	// stable core is transitive — every owned node traces back to an
	// anchor — so no per-insertion anchor guarantee is needed.
	pool := make([]graph.NodeID, 0, len(c.anchors)+len(c.own))
	pool = append(pool, c.anchors...)
	pool = append(pool, c.own...)
	k := 1 + c.rng.Intn(c.maxAttach)
	if k > len(pool) {
		k = len(pool)
	}
	nbrs := make([]graph.NodeID, 0, k)
	seen := make(map[graph.NodeID]struct{}, k)
	for len(nbrs) < k {
		w := pool[c.rng.Intn(len(pool))]
		if _, dup := seen[w]; dup {
			continue
		}
		seen[w] = struct{}{}
		nbrs = append(nbrs, w)
	}
	id := c.next
	c.next++
	c.own = append(c.own, id)
	return Event{Kind: Insert, Node: id, Neighbors: nbrs}
}

// Owns returns the nodes the stream believes it has inserted and not yet
// deleted. Read-only view.
func (c *ClientStream) Owns() []graph.NodeID { return c.own }
