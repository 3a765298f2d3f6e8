package graph

import "testing"

// The allocation guarantees below are part of the package API (see the
// package comment and README "Performance"): accessors that read stored
// state — Neighbors included, mutation or no mutation — never allocate, and
// the two derived views (Nodes, Edges) are free in steady state.

func allocGraph(tb testing.TB) *Graph {
	tb.Helper()
	g := New()
	for i := 0; i < 64; i++ {
		g.EnsureNode(NodeID(i))
	}
	for i := 0; i < 64; i++ {
		g.EnsureEdge(NodeID(i), NodeID((i+1)%64))
		g.EnsureEdge(NodeID(i), NodeID((i+7)%64))
	}
	return g
}

func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(100, fn); avg != 0 {
		t.Errorf("%s allocates %.1f times per call, want 0", name, avg)
	}
}

func TestZeroAllocAccessors(t *testing.T) {
	g := allocGraph(t)
	sink := 0
	assertZeroAllocs(t, "Degree", func() { sink += g.Degree(7) })
	assertZeroAllocs(t, "HasEdge", func() {
		if g.HasEdge(3, 4) {
			sink++
		}
	})
	assertZeroAllocs(t, "HasNode", func() {
		if g.HasNode(3) {
			sink++
		}
	})
	fn := func(w NodeID) { sink += int(w) }
	assertZeroAllocs(t, "ForEachNode", func() { g.ForEachNode(fn) })
	// Neighbors is the stored slice, so there is no cold state: toggling an
	// edge elsewhere (within capacity after the first round) and reading
	// right after costs nothing.
	g.EnsureEdge(0, 32)
	assertZeroAllocs(t, "Neighbors right after a mutation", func() {
		if !g.EnsureEdge(0, 32) {
			_ = g.RemoveEdge(0, 32) // present: EnsureEdge just said so
		}
		sink += len(g.Neighbors(5))
	})
	_ = sink
}

func TestZeroAllocCachedViewsSteadyState(t *testing.T) {
	g := allocGraph(t)
	// Warm the caches once; steady-state reads must then be free.
	g.Nodes()
	g.Edges()
	var n int
	assertZeroAllocs(t, "Nodes (cached)", func() { n += len(g.Nodes()) })
	assertZeroAllocs(t, "Edges (cached)", func() { n += len(g.Edges()) })
	_ = n
}
