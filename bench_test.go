package xheal_test

import (
	"math/rand"
	"testing"

	"github.com/xheal/xheal"
	"github.com/xheal/xheal/internal/cuts"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/harness"
	"github.com/xheal/xheal/internal/hgraph"
	"github.com/xheal/xheal/internal/metrics"
	"github.com/xheal/xheal/internal/spectral"
)

// --- experiment regeneration benches ----------------------------------------
//
// One benchmark per experiment (paper theorem/lemma/corollary/example); each
// regenerates the full table recorded in EXPERIMENTS.md. Run a single one
// with e.g.: go test -bench BenchmarkE9StarAttack -benchtime 1x

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var exp harness.Experiment
	for _, e := range harness.All() {
		if e.ID == id {
			exp = e
			break
		}
	}
	if exp.Run == nil {
		b.Fatalf("experiment %s not found", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := exp.Run()
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(table.Rows) == 0 {
			b.Fatalf("%s: empty table", id)
		}
	}
}

func BenchmarkE1Degree(b *testing.B)               { benchExperiment(b, "E1") }
func BenchmarkE2Stretch(b *testing.B)              { benchExperiment(b, "E2") }
func BenchmarkE3Expansion(b *testing.B)            { benchExperiment(b, "E3") }
func BenchmarkE4Spectral(b *testing.B)             { benchExperiment(b, "E4") }
func BenchmarkE5ExpanderPreservation(b *testing.B) { benchExperiment(b, "E5") }
func BenchmarkE6DistributedCost(b *testing.B)      { benchExperiment(b, "E6") }
func BenchmarkE7HGraphExpansion(b *testing.B)      { benchExperiment(b, "E7") }
func BenchmarkE8HGraphStationarity(b *testing.B)   { benchExperiment(b, "E8") }
func BenchmarkE9StarAttack(b *testing.B)           { benchExperiment(b, "E9") }
func BenchmarkE10LowerBound(b *testing.B)          { benchExperiment(b, "E10") }
func BenchmarkE11Invariants(b *testing.B)          { benchExperiment(b, "E11") }
func BenchmarkE12Ablations(b *testing.B)           { benchExperiment(b, "E12") }
func BenchmarkE13Mixing(b *testing.B)              { benchExperiment(b, "E13") }
func BenchmarkE14Congestion(b *testing.B)          { benchExperiment(b, "E14") }

// --- micro benches on the core primitives -----------------------------------
//
// Profile one with e.g.: go test -run '^$' -bench BenchmarkHealDeletion -cpuprofile cpu.prof

// removeAt swap-deletes index i from ids, preserving the invariant that ids
// tracks the alive set without re-listing the graph inside a timed loop.
func removeAt(ids []graph.NodeID, i int) ([]graph.NodeID, graph.NodeID) {
	v := ids[i]
	ids[i] = ids[len(ids)-1]
	return ids[:len(ids)-1], v
}

// BenchmarkHealDeletion measures one sequential Xheal repair in steady state
// (delete + re-insert on a churned network). The alive-ID slice is
// maintained incrementally so the measured region is the healing itself,
// not node listing.
func BenchmarkHealDeletion(b *testing.B) {
	g, err := xheal.RandomRegularGraph(256, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	n, err := xheal.NewNetwork(g, xheal.WithKappa(4), xheal.WithSeed(2))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	alive := append([]xheal.NodeID(nil), n.Graph().Nodes()...)
	next := xheal.NodeID(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var victim xheal.NodeID
		alive, victim = removeAt(alive, rng.Intn(len(alive)))
		if err := n.Delete(victim); err != nil {
			b.Fatal(err)
		}
		u, v := alive[rng.Intn(len(alive))], alive[rng.Intn(len(alive))]
		nbrs := []xheal.NodeID{u, v}
		if u == v {
			nbrs = nbrs[:1]
		}
		if err := n.Insert(next, nbrs); err != nil {
			b.Fatal(err)
		}
		alive = append(alive, next)
		next++
	}
}

// BenchmarkDistributedDeletion measures one full message-passing repair.
func BenchmarkDistributedDeletion(b *testing.B) {
	g, err := xheal.RandomRegularGraph(512, 3, 4)
	if err != nil {
		b.Fatal(err)
	}
	d, err := xheal.NewDistributed(g, xheal.WithKappa(4), xheal.WithSeed(5))
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	rng := rand.New(rand.NewSource(6))
	alive := append([]xheal.NodeID(nil), d.State().AliveNodes()...)
	next := xheal.NodeID(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var victim xheal.NodeID
		alive, victim = removeAt(alive, rng.Intn(len(alive)))
		if err := d.Delete(victim); err != nil {
			b.Fatal(err)
		}
		if err := d.Insert(next, []xheal.NodeID{alive[rng.Intn(len(alive))]}); err != nil {
			b.Fatal(err)
		}
		alive = append(alive, next)
		next++
	}
}

// BenchmarkHGraphChurn measures the expander substrate's incremental ops.
func BenchmarkHGraphChurn(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ids := make([]graph.NodeID, 128)
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	h, err := hgraph.New(3, ids, rng)
	if err != nil {
		b.Fatal(err)
	}
	members := append([]graph.NodeID(nil), h.Members()...)
	next := graph.NodeID(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var victim graph.NodeID
		members, victim = removeAt(members, rng.Intn(len(members)))
		if err := h.Delete(victim); err != nil {
			b.Fatal(err)
		}
		if err := h.Insert(next); err != nil {
			b.Fatal(err)
		}
		members = append(members, next)
		next++
	}
}

// churnBatch assembles one steady-state timestep against the alive set:
// deletes distinct victims and re-inserts as many fresh nodes attached to
// surviving neighbors, keeping the network size constant. Returns the
// updated alive slice (victims removed, fresh IDs appended).
func churnBatch(rng *rand.Rand, alive []xheal.NodeID, next *xheal.NodeID, dels int) (xheal.Batch, []xheal.NodeID) {
	var batch xheal.Batch
	for i := 0; i < dels && len(alive) > 4; i++ {
		var victim xheal.NodeID
		alive, victim = removeAt(alive, rng.Intn(len(alive)))
		batch.Deletions = append(batch.Deletions, victim)
	}
	for range batch.Deletions {
		u, v := alive[rng.Intn(len(alive))], alive[rng.Intn(len(alive))]
		nbrs := []xheal.NodeID{u, v}
		if u == v {
			nbrs = nbrs[:1]
		}
		batch.Insertions = append(batch.Insertions, xheal.BatchInsertion{Node: *next, Neighbors: nbrs})
		alive = append(alive, *next)
		*next++
	}
	return batch, alive
}

// BenchmarkApplyBatchSerial measures a 12-deletion churn timestep on a
// large sparse network, healed serially.
func BenchmarkApplyBatchSerial(b *testing.B) {
	g, err := xheal.RandomRegularGraph(512, 3, 21)
	if err != nil {
		b.Fatal(err)
	}
	n, err := xheal.NewNetwork(g, xheal.WithKappa(4), xheal.WithSeed(22))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	alive := append([]xheal.NodeID(nil), n.Graph().Nodes()...)
	next := xheal.NodeID(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var batch xheal.Batch
		batch, alive = churnBatch(rng, alive, &next, 12)
		if err := n.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLambda2Jacobi measures the dense eigensolver path (n <= 220).
func BenchmarkLambda2Jacobi(b *testing.B) {
	g, err := xheal.RandomRegularGraph(128, 3, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lam := spectral.AlgebraicConnectivity(g, rng); lam <= 0 {
			b.Fatal("non-positive lambda2")
		}
	}
}

// BenchmarkLambda2Lanczos measures the sparse (matrix-free) eigensolver path (n > 220).
func BenchmarkLambda2Lanczos(b *testing.B) {
	g, err := xheal.RandomRegularGraph(512, 3, 10)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lam := spectral.AlgebraicConnectivity(g, rng); lam <= 0 {
			b.Fatal("non-positive lambda2")
		}
	}
}

// BenchmarkMixingTime measures the exact lazy-walk mixing estimator.
func BenchmarkMixingTime(b *testing.B) {
	g, err := xheal.RandomRegularGraph(96, 3, 12)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := metrics.MixingTime(g, 0.05, 2000, 2, rng)
		if res.Steps > 2000 {
			b.Fatal("walk failed to mix")
		}
	}
}

// BenchmarkExactExpansion measures the exhaustive cut enumerator at its
// size limit.
func BenchmarkExactExpansion(b *testing.B) {
	g, err := xheal.CompleteGraph(18)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cuts.EdgeExpansion(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteRepair measures one localized route splice after a deletion.
func BenchmarkRouteRepair(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := xheal.PathGraph(64)
		if err != nil {
			b.Fatal(err)
		}
		n, err := xheal.NewNetwork(g, xheal.WithKappa(4), xheal.WithSeed(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		table := xheal.NewRouteTable()
		if _, err := table.Pin(n.Graph(), 0, 63); err != nil {
			b.Fatal(err)
		}
		if err := n.Delete(32); err != nil {
			b.Fatal(err)
		}
		table.OnDelete(n.Graph(), 32)
		if table.Routes() != 1 {
			b.Fatal("route lost")
		}
	}
}

// BenchmarkStarHeal measures the headline repair: hub deletion on a star.
func BenchmarkStarHeal(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := xheal.StarGraph(64)
		if err != nil {
			b.Fatal(err)
		}
		n, err := xheal.NewNetwork(g, xheal.WithKappa(4), xheal.WithSeed(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if err := n.Delete(0); err != nil {
			b.Fatal(err)
		}
	}
}
