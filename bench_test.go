package xheal_test

import (
	"testing"

	"github.com/xheal/xheal"
	"github.com/xheal/xheal/internal/benchcases"
	"github.com/xheal/xheal/internal/cuts"
	"github.com/xheal/xheal/internal/harness"
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
// Bodies shared with `xheal-bench -benchjson` live in internal/benchcases so
// the recorded trajectory (docs/bench-history) measures exactly this code.

func BenchmarkHealDeletion(b *testing.B)        { benchcases.HealDeletion(b) }
func BenchmarkApplyBatchSerial(b *testing.B)    { benchcases.ApplyBatchSerial(b) }
func BenchmarkApplyBatchParallel(b *testing.B)  { benchcases.ApplyBatchParallel(b) }
func BenchmarkDistributedDeletion(b *testing.B) { benchcases.DistributedDeletion(b) }
func BenchmarkHGraphChurn(b *testing.B)         { benchcases.HGraphChurn(b) }
func BenchmarkLambda2Jacobi(b *testing.B)       { benchcases.Lambda2Jacobi(b) }
func BenchmarkLambda2Lanczos(b *testing.B)      { benchcases.Lambda2Lanczos(b) }
func BenchmarkMixingTime(b *testing.B)          { benchcases.MixingTime(b) }

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
