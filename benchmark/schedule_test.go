package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/core"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/workload"
)

// quickSchedule builds sp's schedule at the smoke size.
func quickSchedule(t *testing.T, sp spec, seed int64) (*schedule, *graph.Graph) {
	t.Helper()
	sp = sp.scaled(refSeconds, true)
	g0, err := workload.ByName(sp.genesis, sp.n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := buildSchedule(sp, seed, g0)
	if err != nil {
		t.Fatal(err)
	}
	return s, g0
}

func bodiesHash(s *schedule) string {
	h := sha256.New()
	for _, b := range s.bodies {
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestScheduleBytesPinned pins the request bodies per seed: the daemon must
// receive only generated inputs, and two commits can only be compared if
// they were sent the same bytes. A deliberate generator change repins these.
func TestScheduleBytesPinned(t *testing.T) {
	pinned := map[string]string{
		"churn64-10k":       "86a05281bf11f4c6062fc4a25954c39eb3ed12b5ec74622ac2596456ce4027ee",
		"churn64-100k":      "86a05281bf11f4c6062fc4a25954c39eb3ed12b5ec74622ac2596456ce4027ee",
		"churn1-10k":        "710de90d1302db22756c79d0beea4135b2324812b1f889fc62a65d16d2e44098",
		"regionfail16-2500": "bd2dbd275ed0cc821765622917b89aa65662e8c0f5efc0cd27e65fa2229170f9",
	}
	for _, sp := range specs {
		a, _ := quickSchedule(t, sp, 1)
		b, _ := quickSchedule(t, sp, 1)
		if bodiesHash(a) != bodiesHash(b) {
			t.Errorf("%s: two builds at one seed differ", sp.name)
		}
		if got := bodiesHash(a); got != pinned[sp.name] {
			t.Errorf("%s: seed 1 bodies hash %s, pinned %s", sp.name, got, pinned[sp.name])
		}
		other, _ := quickSchedule(t, sp, 2)
		if bodiesHash(other) == bodiesHash(a) {
			t.Errorf("%s: seeds 1 and 2 give the same bodies", sp.name)
		}
		if len(a.bodies) != warmupPosts+16 {
			t.Errorf("%s: %d bodies, want %d", sp.name, len(a.bodies), warmupPosts+16)
		}
	}
}

// TestScheduleValidAgainstEngine replays every workload's schedule through a
// real core.State, one array per batch exactly as the server assembles it:
// every batch must validate (no conflict, so no deferral and one POST stays
// one tick), and the generator's alive bookkeeping must match the engine.
func TestScheduleValidAgainstEngine(t *testing.T) {
	for _, sp := range specs {
		s, g0 := quickSchedule(t, sp, 3)
		st, err := core.NewState(core.Config{Kappa: daemonKappa, Seed: 3}, g0)
		if err != nil {
			t.Fatal(err)
		}
		for i, arr := range s.events {
			var b core.Batch
			for _, ev := range arr {
				if ev.Kind == adversary.Insert {
					b.Insertions = append(b.Insertions, core.BatchInsertion{Node: ev.Node, Neighbors: ev.Neighbors})
				} else {
					b.Deletions = append(b.Deletions, ev.Node)
				}
			}
			if err := st.ApplyBatch(b); err != nil {
				t.Fatalf("%s: array %d: %v", sp.name, i, err)
			}
		}
		if got := st.Graph().NumNodes(); got != s.aliveEnd {
			t.Errorf("%s: engine holds %d nodes, generator's bookkeeping says %d", sp.name, got, s.aliveEnd)
		}
		if err := st.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", sp.name, err)
		}
	}
}

// TestChurnValidByConstruction checks the churn generator's own promises at
// the full workload sizes, without an engine: arrays of the stated size, no
// conflict inside an array, no attachment to a node any array deletes, own
// insertions deleted only once churnMinAge arrays old, alive within 2% of n.
func TestChurnValidByConstruction(t *testing.T) {
	for _, sp := range specs {
		if sp.scenario != "" {
			continue
		}
		genesis := make([]graph.NodeID, sp.n)
		for i := range genesis {
			genesis[i] = graph.NodeID(i)
		}
		arrays, err := churnArrays(genesis, warmupPosts+sp.posts, sp.array, 7)
		if err != nil {
			t.Fatal(err)
		}
		attached := map[graph.NodeID]bool{}
		deleted := map[graph.NodeID]bool{}
		born := map[graph.NodeID]int{}
		alive := sp.n
		for a, arr := range arrays {
			if len(arr) != sp.array {
				t.Fatalf("%s: array %d has %d events, want %d", sp.name, a, len(arr), sp.array)
			}
			for _, ev := range arr {
				switch ev.Kind {
				case adversary.Insert:
					if _, dup := born[ev.Node]; dup || int(ev.Node) < sp.n {
						t.Fatalf("%s: array %d reuses node ID %d", sp.name, a, ev.Node)
					}
					born[ev.Node] = a
					if len(ev.Neighbors) != churnAttach {
						t.Fatalf("%s: insert %d attaches to %d nodes", sp.name, ev.Node, len(ev.Neighbors))
					}
					seen := map[graph.NodeID]bool{}
					for _, w := range ev.Neighbors {
						if seen[w] || int(w) >= sp.n {
							t.Fatalf("%s: insert %d: bad attachment %v", sp.name, ev.Node, ev.Neighbors)
						}
						seen[w] = true
						attached[w] = true
					}
					alive++
				case adversary.Delete:
					if deleted[ev.Node] {
						t.Fatalf("%s: array %d deletes %d twice", sp.name, a, ev.Node)
					}
					deleted[ev.Node] = true
					if b, own := born[ev.Node]; own && a-b < churnMinAge {
						t.Fatalf("%s: array %d deletes node %d inserted by array %d", sp.name, a, ev.Node, b)
					} else if !own && int(ev.Node) >= sp.n {
						t.Fatalf("%s: array %d deletes unknown node %d", sp.name, a, ev.Node)
					}
					alive--
				}
			}
			if d := alive - sp.n; d*50 > sp.n || -d*50 > sp.n {
				t.Fatalf("%s: %d alive after array %d, more than 2%% from n=%d", sp.name, alive, a, sp.n)
			}
		}
		for v := range deleted {
			if attached[v] {
				t.Fatalf("%s: node %d is attached to by one array and deleted by another", sp.name, v)
			}
		}
	}
}

// TestScaledPostCounts: every run length keeps the counts that make the
// window end 16 ticks after a checkpoint, and never pools under 1000 acks.
func TestScaledPostCounts(t *testing.T) {
	for _, sp := range specs {
		if got := sp.scaled(refSeconds, false).posts; got != sp.posts {
			t.Errorf("%s: %d POSTs at the reference run length, spec says %d", sp.name, got, sp.posts)
		}
		for seconds := 1; seconds <= 60; seconds++ {
			p := sp.scaled(seconds, false).posts
			if p%32 != 16 || p < minPosts || fullRepeats*p < 1000 {
				t.Errorf("%s: -seconds %d gives %d measured POSTs", sp.name, seconds, p)
			}
		}
	}
}
