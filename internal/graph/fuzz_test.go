package graph

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// setModel is the reference implementation FuzzGraphOps compares against:
// the map-of-sets adjacency Graph itself used before it stored sorted
// slices. Deliberately naive — every answer is recomputed from the sets.
type setModel map[NodeID]map[NodeID]struct{}

func (m setModel) hasEdge(u, v NodeID) bool {
	_, ok := m[u][v]
	return ok
}

func (m setModel) addNode(n NodeID) bool {
	if _, ok := m[n]; ok {
		return false
	}
	m[n] = map[NodeID]struct{}{}
	return true
}

func (m setModel) addEdge(u, v NodeID) {
	m[u][v] = struct{}{}
	m[v][u] = struct{}{}
}

func (m setModel) removeEdge(u, v NodeID) {
	delete(m[u], v)
	delete(m[v], u)
}

// removeNode deletes n and returns the neighbors it had, ascending.
func (m setModel) removeNode(n NodeID) []NodeID {
	nbrs := sortedKeys(m[n])
	for _, w := range nbrs {
		delete(m[w], n)
	}
	delete(m, n)
	return nbrs
}

// addEdgeErr is the sentinel AddEdge must wrap for (u, v), nil for success.
func (m setModel) addEdgeErr(u, v NodeID) error {
	_, hasU := m[u]
	_, hasV := m[v]
	switch {
	case u == v:
		return ErrSelfLoop
	case !hasU || !hasV:
		return ErrNodeMissing
	case m.hasEdge(u, v):
		return ErrEdgeExists
	}
	return nil
}

func sortedKeys[V any](m map[NodeID]V) []NodeID {
	out := make([]NodeID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// fuzzIDs is the ID universe of FuzzGraphOps: small, so collisions,
// re-adds and duplicate edges are the common case.
const fuzzIDs = 16

// checkAgainstModel compares every read accessor of g with the model.
func checkAgainstModel(t *testing.T, g *Graph, m setModel) {
	t.Helper()
	if got, want := g.Nodes(), sortedKeys(m); !slices.Equal(got, want) {
		t.Fatalf("Nodes = %v, model %v", got, want)
	}
	if g.NumNodes() != len(m) {
		t.Fatalf("NumNodes = %d, model %d", g.NumNodes(), len(m))
	}
	var wantEdges []Edge
	for u := NodeID(0); u < fuzzIDs; u++ {
		set, present := m[u]
		if g.HasNode(u) != present {
			t.Fatalf("HasNode(%d) = %v, model %v", u, !present, present)
		}
		got := g.Neighbors(u)
		if !present && got != nil {
			t.Fatalf("Neighbors(%d) of absent node = %v, want nil", u, got)
		}
		if want := sortedKeys(set); !slices.Equal(got, want) {
			t.Fatalf("Neighbors(%d) = %v, model %v", u, got, want)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("Neighbors(%d) = %v not strictly ascending", u, got)
			}
		}
		if g.Degree(u) != len(set) {
			t.Fatalf("Degree(%d) = %d, model %d", u, g.Degree(u), len(set))
		}
		for v := NodeID(0); v < fuzzIDs; v++ {
			want := m.hasEdge(u, v)
			if g.HasEdge(u, v) != want || g.HasEdge(v, u) != want {
				t.Fatalf("HasEdge(%d,%d)=%v HasEdge(%d,%d)=%v, model %v",
					u, v, g.HasEdge(u, v), v, u, g.HasEdge(v, u), want)
			}
			if want && u < v {
				wantEdges = append(wantEdges, Edge{U: u, V: v})
			}
		}
	}
	// wantEdges was built in (U, V) order, the canonical one.
	if got := g.Edges(); !slices.Equal(got, wantEdges) {
		t.Fatalf("Edges = %v, model %v", got, wantEdges)
	}
	if g.NumEdges() != len(wantEdges) {
		t.Fatalf("NumEdges = %d, model %d", g.NumEdges(), len(wantEdges))
	}
}

// FuzzGraphOps drives random operation sequences decoded from fuzz input
// bytes through the graph and through setModel side by side, comparing
// every read accessor after every operation and every mutator's result
// (including the error paths) as it happens.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1})
	// A lower ID inserted into an existing neighbor slice shifts it in
	// place, then a higher one, then the middle one goes.
	f.Add([]byte{1, 5, 9, 1, 5, 2, 1, 5, 12, 3, 5, 9})
	// Remove a node with neighbors, re-add the ID, wire it up again.
	f.Add([]byte{1, 5, 9, 1, 5, 2, 1, 2, 9, 6, 5, 0, 1, 5, 3, 2, 5, 0, 4, 5, 0})
	// AddNode / AddEdge error paths: self loop, missing endpoints,
	// duplicate node, duplicate edge in both orientations.
	f.Add([]byte{5, 1, 1, 5, 1, 2, 4, 1, 0, 4, 1, 0, 5, 1, 2, 4, 2, 0, 5, 1, 2, 5, 1, 2, 5, 2, 1, 3, 2, 1, 3, 2, 1, 2, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := New()
		m := setModel{}
		// Every RemoveNode return with a copy taken at hand-over: the graph
		// must never write a slice it gave away.
		type handedOver struct{ got, want []NodeID }
		var removed []handedOver
		removeNode := func(u NodeID) {
			_, present := m[u]
			got, err := g.RemoveNode(u)
			if !present {
				if !errors.Is(err, ErrNodeMissing) {
					t.Fatalf("RemoveNode(%d) of absent node: %v, want ErrNodeMissing", u, err)
				}
				return
			}
			if want := m.removeNode(u); err != nil || !slices.Equal(got, want) {
				t.Fatalf("RemoveNode(%d) = %v, %v; model %v", u, got, err, want)
			}
			removed = append(removed, handedOver{got, slices.Clone(got)})
		}
		for i := 0; i+2 < len(data); i += 3 {
			u := NodeID(data[i+1] % fuzzIDs)
			v := NodeID(data[i+2] % fuzzIDs)
			switch data[i] % 7 {
			case 0:
				if got, want := g.EnsureNode(u), m.addNode(u); got != want {
					t.Fatalf("EnsureNode(%d) = %v, model %v", u, got, want)
				}
			case 1:
				want := u != v && !m.hasEdge(u, v)
				if want {
					m.addNode(u)
					m.addNode(v)
					m.addEdge(u, v)
				}
				if got := g.EnsureEdge(u, v); got != want {
					t.Fatalf("EnsureEdge(%d,%d) = %v, model %v", u, v, got, want)
				}
			case 2:
				removeNode(u)
			case 3:
				want := m.hasEdge(u, v)
				m.removeEdge(u, v)
				if err := g.RemoveEdge(u, v); (err == nil) != want || (err != nil && !errors.Is(err, ErrEdgeMissing)) {
					t.Fatalf("RemoveEdge(%d,%d): %v, model had edge: %v", u, v, err, want)
				}
			case 4:
				want := m.addNode(u)
				if err := g.AddNode(u); (err == nil) != want || (err != nil && !errors.Is(err, ErrNodeExists)) {
					t.Fatalf("AddNode(%d): %v, model absent: %v", u, err, want)
				}
			case 5:
				want := m.addEdgeErr(u, v)
				if want == nil {
					m.addEdge(u, v)
				}
				if err := g.AddEdge(u, v); !errors.Is(err, want) {
					t.Fatalf("AddEdge(%d,%d): %v, model %v", u, v, err, want)
				}
			case 6:
				// Re-add a removed ID: it must come back with no neighbors.
				removeNode(u)
				m.addNode(u)
				if err := g.AddNode(u); err != nil {
					t.Fatalf("re-AddNode(%d): %v", u, err)
				}
				if nb := g.Neighbors(u); nb == nil || len(nb) != 0 {
					t.Fatalf("re-added node %d starts with neighbors %v (nil: %v)", u, nb, nb == nil)
				}
			}
			checkAgainstModel(t, g, m)
		}
		for _, r := range removed {
			if !slices.Equal(r.got, r.want) {
				t.Fatalf("RemoveNode return rewritten to %v after hand-over, was %v", r.got, r.want)
			}
		}
		if !checkSymmetric(g) {
			t.Fatal("adjacency symmetry broken")
		}
		// Components partition the nodes.
		total := 0
		for _, comp := range g.Components() {
			total += len(comp)
		}
		if total != g.NumNodes() {
			t.Fatalf("components cover %d of %d nodes", total, g.NumNodes())
		}
	})
}

// FuzzDistanceConsistency checks Distance against BFSFrom on fuzzed graphs.
func FuzzDistanceConsistency(f *testing.F) {
	f.Add(int64(1), uint8(10))
	f.Add(int64(42), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, size uint8) {
		n := int(size%24) + 2
		rng := rand.New(rand.NewSource(seed))
		g := New()
		for i := 0; i < n; i++ {
			g.EnsureNode(NodeID(i))
		}
		for i := 0; i < 2*n; i++ {
			g.EnsureEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		src := NodeID(rng.Intn(n))
		dist := g.BFSFrom(src)
		for i := 0; i < n; i++ {
			dst := NodeID(i)
			want, reachable := dist[dst]
			got := g.Distance(src, dst)
			if reachable && got != want {
				t.Fatalf("Distance(%d,%d) = %d, BFS = %d", src, dst, got, want)
			}
			if !reachable && got != Unreachable {
				t.Fatalf("Distance(%d,%d) = %d, want Unreachable", src, dst, got)
			}
		}
	})
}
