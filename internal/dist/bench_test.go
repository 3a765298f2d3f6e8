package dist

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/xheal/xheal/internal/core"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/workload"
)

// BenchmarkEngineChurn drives the engine through 100 batches per iteration,
// each of 32 insertions (1–3 distinct genesis anchors apiece) followed by up
// to 32 deletions of insertions from earlier batches, on a random 6-regular
// genesis graph at κ = 4. Besides the churn's time it reports the engine's
// live heap per alive node after the churn (the embedded core.State
// included, the genesis graph excluded) and the goroutines the engine holds.
//
//	go test -run '^$' -bench EngineChurn -benchtime 1x ./internal/dist
func BenchmarkEngineChurn(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"n=1e4", 10_000}, {"n=1e5", 100_000}} {
		b.Run(c.name, func(b *testing.B) { benchEngineChurn(b, c.n) })
	}
}

func benchEngineChurn(b *testing.B, n int) {
	const (
		batches   = 100
		perBatch  = 32
		maxAnchor = 3
	)
	g0, err := workload.RandomRegular(n, 3, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	goroutines := runtime.NumGoroutine()
	heap := liveHeap()
	e, err := NewEngine(Config{Kappa: 4, Seed: 1}, g0)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(2))
	next := graph.NodeID(n) // genesis IDs are 0..n-1
	var older []graph.NodeID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for range batches {
			var bt core.Batch
			for range perBatch {
				anchors := make([]graph.NodeID, 0, maxAnchor)
				for a := 1 + rng.Intn(maxAnchor); a > 0; a-- {
					if w := graph.NodeID(rng.Intn(n)); !slices.Contains(anchors, w) {
						anchors = append(anchors, w)
					}
				}
				bt.Insertions = append(bt.Insertions, core.BatchInsertion{Node: next, Neighbors: anchors})
				next++
			}
			for k := 0; k < perBatch && len(older) > 0; k++ {
				j := rng.Intn(len(older))
				bt.Deletions = append(bt.Deletions, older[j])
				older[j] = older[len(older)-1]
				older = older[:len(older)-1]
			}
			if err := e.ApplyBatch(bt); err != nil {
				b.Fatal(err)
			}
			for _, ins := range bt.Insertions {
				older = append(older, ins.Node)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(liveHeap()-heap)/float64(e.Graph().NumNodes()), "heapB/node")
	b.ReportMetric(float64(runtime.NumGoroutine()-goroutines), "goroutines")
	runtime.KeepAlive(g0)
}

// liveHeap returns the bytes of reachable heap objects after a full GC.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
