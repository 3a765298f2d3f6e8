package scenario

import (
	"sort"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/graph"
)

// registry holds the five chaos shapes. Keep Defaults CI-sized: the smoke
// consumers (conformance.RunScenario -short, the xheal-drill smokes) run
// every entry per PR, so defaults must finish in seconds; soak scales them
// up via flags.
var registry = map[string]*Scenario{
	NameFlashCrowd: {
		Name:        NameFlashCrowd,
		Description: "correlated insert burst: a crowd of new nodes piles onto one BFS-ball anchor region, with light churn of earlier arrivals",
		Workload:    "regular",
		Defaults:    Params{N: 64, Events: 240, Wave: 16, Rate: 400, Seed: 11},
		start:       flashcrowdStart,
	},
	NameRegionFail: {
		Name:        NameRegionFail,
		Description: "regional failure: alternating waves delete a correlated cluster footprint (a BFS ball) and insert replacements attached to survivors",
		Workload:    "grid",
		Defaults:    Params{N: 81, Events: 240, Wave: 12, Rate: 300, Seed: 12},
		start:       regionfailStart,
	},
	NamePartition: {
		Name:        NamePartition,
		Description: "partition churn: one fixed footprint is repeatedly torn down and rebuilt, reattaching through a protected boundary that never fails",
		Workload:    "regular",
		Defaults:    Params{N: 64, Events: 240, Wave: 10, Rate: 300, Seed: 13},
		start:       partitionStart,
	},
	NameSlowDrip: {
		Name:        NameSlowDrip,
		Description: "slow-drip targeted attack: the adversary deletes the highest-degree node one event at a time, topping the graph back up at a floor",
		Workload:    "powerlaw",
		Defaults:    Params{N: 64, Events: 120, Wave: 1, Rate: 40, Seed: 14},
		start:       slowdripStart,
	},
	NameReadMix: {
		Name:         NameReadMix,
		Description:  "mixed read/heal traffic: client-style insert/delete churn with health and metrics queries interleaved into every wave",
		Workload:     "er",
		ReadsPerWave: 4,
		Defaults:     Params{N: 64, Events: 240, Wave: 8, Rate: 250, Seed: 15},
		start:        readmixStart,
	},
}

// ball returns the BFS ball of the given radius around src in g, nearest
// first (ties broken by node ID so map iteration order can't leak in),
// truncated to limit nodes.
func ball(g *graph.Graph, src graph.NodeID, radius, limit int) []graph.NodeID {
	dist := g.BFSFrom(src)
	out := make([]graph.NodeID, 0, len(dist))
	for v, d := range dist {
		if d <= radius {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if dist[out[i]] != dist[out[j]] {
			return dist[out[i]] < dist[out[j]]
		}
		return out[i] < out[j]
	})
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// flashcrowdStart: a crowd converges on one anchor region. Every insert
// attaches to 1–3 members of a fixed radius-2 BFS ball around a random
// anchor; region members are never deleted (the region is the event's focal
// point), but ~15% of events churn out an earlier crowd arrival — the
// flash-crowd clients that leave again.
func flashcrowdStart(s *Stream) stepFunc {
	nodes := s.book.Nodes()
	anchor := nodes[s.rng.Intn(len(nodes))]
	region := ball(s.book, anchor, 2, max(4, s.p.N/4))
	var crowd []graph.NodeID
	return func(s *Stream) adversary.Event {
		if len(crowd) > 0 && s.rng.Float64() < 0.15 {
			if v, ok := s.pickAliveFrom(crowd, func(v graph.NodeID) bool { return !s.isTouched(v) }); ok {
				for i, c := range crowd {
					if c == v {
						crowd = append(crowd[:i], crowd[i+1:]...)
						break
					}
				}
				return deleteEvent(v)
			}
		}
		ev := s.insertEvent(s.attachSet(1+s.rng.Intn(3), region))
		crowd = append(crowd, ev.Node)
		return ev
	}
}

// regionfailStart: alternating failure and recovery waves. Even waves pick a
// fresh BFS-ball footprint around a random center and delete its members
// (down to an alive floor); odd waves insert replacement nodes attached to
// two survivors each — the orchestration layer refilling capacity after a
// rack loss.
func regionfailStart(s *Stream) stepFunc {
	floor := max(8, s.p.N/3)
	var pending []graph.NodeID
	return func(s *Stream) adversary.Event {
		if s.waveIndex()%2 == 0 && s.book.NumNodes() > floor {
			if len(pending) == 0 {
				if c, ok := s.pickAliveFrom(s.book.Nodes(), nil); ok {
					pending = ball(s.book, c, 2, max(4, s.p.N/6))
				}
			}
			for len(pending) > 0 {
				v := pending[0]
				pending = pending[1:]
				if s.book.HasNode(v) && !s.isTouched(v) && s.book.NumNodes() > floor {
					return deleteEvent(v)
				}
			}
		}
		return s.insertEvent(s.attachSet(2, nil))
	}
}

// partitionStart: the same footprint flaps. A fixed BFS ball around the
// smallest genesis node is the partitioned region; its outside boundary is
// protected (never deleted) so the rebuild always has somewhere to attach.
// Even waves tear footprint members down, odd waves insert new members wired
// to the boundary and surviving footprint — membership churns, locality
// doesn't.
func partitionStart(s *Stream) stepFunc {
	nodes := s.book.Nodes()
	footprint := ball(s.book, nodes[0], 2, max(4, s.p.N/4))
	inFoot := make(map[graph.NodeID]struct{}, len(footprint))
	for _, v := range footprint {
		inFoot[v] = struct{}{}
	}
	boundarySet := make(map[graph.NodeID]struct{})
	for _, v := range footprint {
		for _, w := range s.book.Neighbors(v) {
			if _, in := inFoot[w]; !in {
				boundarySet[w] = struct{}{}
			}
		}
	}
	boundary := make([]graph.NodeID, 0, len(boundarySet))
	for v := range boundarySet {
		boundary = append(boundary, v)
	}
	sort.Slice(boundary, func(i, j int) bool { return boundary[i] < boundary[j] })
	return func(s *Stream) adversary.Event {
		if s.waveIndex()%2 == 0 {
			for i, v := range footprint {
				if s.book.HasNode(v) && !s.isTouched(v) {
					footprint = append(footprint[:i], footprint[i+1:]...)
					return deleteEvent(v)
				}
			}
		}
		pool := append(append([]graph.NodeID(nil), boundary...), footprint...)
		ev := s.insertEvent(s.attachSet(1+s.rng.Intn(2), pool))
		footprint = append(footprint, ev.Node)
		return ev
	}
}

// slowdripStart: the omniscient adversary's patient variant. Each event
// deletes the highest-degree alive node of the bookkeeping graph (smallest
// ID on ties) until the alive floor, then inserts cheap replacements so a
// soak run drips forever. Wave defaults to 1: this attack is low-rate by
// definition.
func slowdripStart(s *Stream) stepFunc {
	floor := max(8, s.p.N/2)
	return func(s *Stream) adversary.Event {
		if s.book.NumNodes() > floor {
			best, bestDeg := graph.NodeID(0), -1
			for _, v := range s.book.Nodes() {
				if s.isTouched(v) {
					continue
				}
				if d := s.book.Degree(v); d > bestDeg {
					best, bestDeg = v, d
				}
			}
			if bestDeg >= 0 {
				return deleteEvent(best)
			}
		}
		return s.insertEvent(s.attachSet(2, nil))
	}
}

// readmixStart: steady client churn shaped like adversary.ClientStream —
// delete only nodes this stream inserted, never genesis — with
// ReadsPerWave health/metrics queries folded into each wave by the serving
// consumer. The mutation side is what conformance checks; the read side
// only exists over HTTP.
func readmixStart(s *Stream) stepFunc {
	var owned []graph.NodeID
	return func(s *Stream) adversary.Event {
		if len(owned) > 0 && s.rng.Float64() < 0.45 {
			if v, ok := s.pickAliveFrom(owned, func(v graph.NodeID) bool { return !s.isTouched(v) }); ok {
				for i, c := range owned {
					if c == v {
						owned = append(owned[:i], owned[i+1:]...)
						break
					}
				}
				return deleteEvent(v)
			}
		}
		ev := s.insertEvent(s.attachSet(1+s.rng.Intn(3), nil))
		owned = append(owned, ev.Node)
		return ev
	}
}
