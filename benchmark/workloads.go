package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/scenario"
	"github.com/xheal/xheal/internal/server"
	"github.com/xheal/xheal/internal/workload"
)

const (
	// warmupPosts is one checkpoint cycle of the daemon's default cadence
	// (32 ticks). It is sent before the window opens and never measured.
	warmupPosts = 32
	// refSeconds is the -seconds value at which a workload sends exactly the
	// POST counts in its spec (BENCHMARK.json's run_seconds); other values
	// scale the counts (see scaled).
	refSeconds = 15
	// minPosts is the fewest measured POSTs a full-size repeat may send:
	// three repeats then pool ≥ 1000 ack samples, so p99 has ≥ 10 beyond it.
	minPosts = 336
	// insertBase is the first node ID the churn generator allocates: above
	// every genesis ID (n ≤ 10⁵), equal to scenario.IDBase so all four
	// workloads insert in the same ID range.
	insertBase = scenario.IDBase
	// churnAttach is how many anchors every churn insertion attaches to, so
	// every deletion of an inserted node leaves the same three-node wound at
	// every n — the Theorem 5 yardstick needs identical wounds.
	churnAttach = 3
	// churnMinAge is how many arrays old an inserted node must be before the
	// generator deletes it.
	churnMinAge = 4
)

// spec is one named workload: a genesis topology the daemon is started on
// and the shape of the write schedule driven against it.
type spec struct {
	name string
	// genesis and n are the daemon's -workload and -n flags.
	genesis string
	n       int
	// posts is the number of measured POSTs at refSeconds, ≡ 16 (mod 32).
	posts int
	// array is the number of events per POST; 1 sends a bare event object.
	array int
	// scenario, when set, takes the schedule from scenario.Compile (one wave
	// of array events per POST) instead of the churn generator.
	scenario string
}

// The workload names are fixed: later issues cite them. Why each was chosen
// is recorded in BENCHMARK.json and README.md.
var specs = []spec{
	// The baseline: engine, checkpoint and the 2 ms gather each hold a
	// moderate share of the wall.
	{name: "churn64-10k", genesis: workload.NameRegular, n: 10_000, posts: 336, array: 64},
	// The Theorem 5 yardstick: the same wounds at ten times the n, so any
	// per-event cost above churn64-10k is O(n) work on the serving path.
	{name: "churn64-100k", genesis: workload.NameRegular, n: 100_000, posts: 336, array: 64},
	// The log and checkpoint layers the other way round: one fsync and one
	// 2 ms gather per event, a checkpoint every 32 events, next to no repair.
	// A batching change that helps arrays and hurts singles shows here.
	{name: "churn1-10k", genesis: workload.NameRegular, n: 10_000, posts: 816, array: 1},
	// Large correlated wounds on a graph small enough that checkpoints are
	// cheap: engine repair dominates here and nowhere else.
	{name: "regionfail16-2500", genesis: workload.NameGrid, n: 2500, posts: 432, array: 16, scenario: scenario.NameRegionFail},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// scaled returns the spec sized for a run: quick shrinks it to the smoke
// shape (n = 512, 16 measured POSTs); otherwise the measured POST count
// scales with seconds/refSeconds, rounded down to ≡ 16 (mod 32) so the
// SIGKILL that ends the window never races a checkpoint and the recovery
// tail is always 16 ticks. The window is a count, never a duration: G′ and
// the deleted set grow with every event, so what a checkpoint costs depends
// on the position in the schedule, and a fixed count makes every run stop at
// the same position.
func (sp spec) scaled(seconds int, quick bool) spec {
	if quick {
		sp.n = 512
		sp.posts = 16
		return sp
	}
	p := sp.posts * seconds / refSeconds
	sp.posts = max(minPosts, (p-16)/32*32+16)
	return sp
}

// schedule is a fully generated write schedule: every request body is
// JSON-encoded before any window opens, and the generator's own bookkeeping
// of what the daemon must hold afterwards rides along.
type schedule struct {
	// bodies[i] is the i-th POST body: warmupPosts unmeasured, then the rest.
	bodies [][]byte
	// sent[i] is the number of events in bodies[i].
	sent []int
	// aliveEnd is the alive node count after the whole schedule.
	aliveEnd int
	// events is the decoded form, which the validity tests replay.
	events [][]adversary.Event
}

func (s *schedule) totalEvents() int {
	total := 0
	for _, n := range s.sent {
		total += n
	}
	return total
}

// buildSchedule generates sp's schedule from seed. g0 is the genesis graph
// the daemon will build from the same seed; only its node list is used.
func buildSchedule(sp spec, seed int64, g0 *graph.Graph) (*schedule, error) {
	posts := warmupPosts + sp.posts
	var arrays [][]adversary.Event
	if sp.scenario != "" {
		c, err := scenario.Compile(sp.scenario, scenario.Params{
			N: sp.n, Wave: sp.array, Events: posts * sp.array, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		if c.Genesis.NumNodes() != g0.NumNodes() || c.Genesis.NumEdges() != g0.NumEdges() {
			return nil, fmt.Errorf("%s: scenario genesis (%d nodes) differs from the daemon's %s genesis (%d nodes)",
				sp.name, c.Genesis.NumNodes(), sp.genesis, g0.NumNodes())
		}
		arrays = c.Waves()
	} else {
		var err error
		arrays, err = churnArrays(g0.Nodes(), posts, sp.array, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
	}
	return encodeSchedule(arrays, g0.NumNodes())
}

// encodeSchedule renders arrays into request bodies in the daemon's wire
// schema. A one-event array is sent as a bare object: that is what a client
// submitting single events sends.
func encodeSchedule(arrays [][]adversary.Event, genesisNodes int) (*schedule, error) {
	s := &schedule{events: arrays, aliveEnd: genesisNodes}
	for _, arr := range arrays {
		wire := make([]server.IngestEvent, len(arr))
		for i, ev := range arr {
			switch ev.Kind {
			case adversary.Insert:
				wire[i] = server.IngestEvent{Kind: "insert", Node: ev.Node, Neighbors: ev.Neighbors}
				s.aliveEnd++
			case adversary.Delete:
				wire[i] = server.IngestEvent{Kind: "delete", Node: ev.Node}
				s.aliveEnd--
			default:
				return nil, fmt.Errorf("schedule: event kind %d", int(ev.Kind))
			}
		}
		var body []byte
		var err error
		if len(wire) == 1 {
			body, err = json.Marshal(wire[0])
		} else {
			body, err = json.Marshal(wire)
		}
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, body)
		s.sent = append(s.sent, len(arr))
	}
	return s, nil
}

// churnArrays generates posts arrays of size events each over the genesis
// node list: events alternate insert, delete. Every fourth genesis node is an
// anchor that is never deleted, and every insertion attaches to churnAttach
// distinct anchors, so no array ever attaches to a node a later array
// deletes. One deletion in eight hits a non-anchor genesis node; the others
// hit one of the generator's own insertions at least churnMinAge arrays old
// (a genesis node while none is old enough). Deletions therefore never touch
// a node the same array inserted or attached to, and the alive count stays
// at n.
func churnArrays(genesis []graph.NodeID, posts, size int, seed int64) ([][]adversary.Event, error) {
	rng := rand.New(rand.NewSource(seed))
	var anchors, spare []graph.NodeID
	for i, v := range genesis {
		if i%4 == 0 {
			anchors = append(anchors, v)
		} else {
			spare = append(spare, v)
		}
	}
	if len(anchors) < churnAttach {
		return nil, fmt.Errorf("churn: %d genesis nodes leave fewer than %d anchors", len(genesis), churnAttach)
	}
	rng.Shuffle(len(spare), func(i, j int) { spare[i], spare[j] = spare[j], spare[i] })

	type own struct {
		id    graph.NodeID
		array int
	}
	var young []own          // insertions not yet churnMinAge arrays old, oldest first
	var ready []graph.NodeID // insertions old enough to delete
	next := graph.NodeID(insertBase)
	arrays := make([][]adversary.Event, posts)
	stream, deletes := 0, 0
	for a := range arrays {
		for len(young) > 0 && young[0].array <= a-churnMinAge {
			ready = append(ready, young[0].id)
			young = young[1:]
		}
		arr := make([]adversary.Event, 0, size)
		for len(arr) < size {
			if stream%2 == 0 {
				nbrs := make([]graph.NodeID, 0, churnAttach)
				for len(nbrs) < churnAttach {
					c := anchors[rng.Intn(len(anchors))]
					dup := false
					for _, w := range nbrs {
						dup = dup || w == c
					}
					if !dup {
						nbrs = append(nbrs, c)
					}
				}
				arr = append(arr, adversary.Event{Kind: adversary.Insert, Node: next, Neighbors: nbrs})
				young = append(young, own{id: next, array: a})
				next++
			} else {
				var victim graph.NodeID
				if deletes%8 != 7 && len(ready) > 0 {
					i := rng.Intn(len(ready))
					victim = ready[i]
					ready[i] = ready[len(ready)-1]
					ready = ready[:len(ready)-1]
				} else {
					if len(spare) == 0 {
						return nil, fmt.Errorf("churn: out of deletable genesis nodes after %d arrays (n=%d)", a, len(genesis))
					}
					victim = spare[len(spare)-1]
					spare = spare[:len(spare)-1]
				}
				deletes++
				arr = append(arr, adversary.Event{Kind: adversary.Delete, Node: victim})
			}
			stream++
		}
		arrays[a] = arr
	}
	return arrays, nil
}
