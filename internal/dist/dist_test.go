package dist

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/xheal/xheal/internal/core"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/workload"
)

func regularEngine(t testing.TB, n, halfDeg, kappa int, seed int64) *Engine {
	t.Helper()
	g0, err := workload.RandomRegular(n, halfDeg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("RandomRegular: %v", err)
	}
	e, err := NewEngine(Config{Kappa: kappa, Seed: seed}, g0)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{Kappa: 4}, nil); !errors.Is(err, core.ErrNilGraph) {
		t.Fatalf("nil graph error = %v, want ErrNilGraph", err)
	}
	g, err := workload.Star(4)
	if err != nil {
		t.Fatalf("Star: %v", err)
	}
	if _, err := NewEngine(Config{Kappa: 3}, g); !errors.Is(err, core.ErrBadKappa) {
		t.Fatalf("odd kappa error = %v, want ErrBadKappa", err)
	}
}

func TestInitialViewsMatchTopology(t *testing.T) {
	e := regularEngine(t, 24, 3, 4, 1)
	if err := e.ValidateLocalViews(); err != nil {
		t.Fatalf("fresh engine views: %v", err)
	}
	if got := e.Totals(); got != (Totals{}) {
		t.Fatalf("fresh engine totals = %+v, want zero", got)
	}
	if e.AmortizedLowerBound() != 0 {
		t.Fatalf("A(p) before any deletion = %v, want 0", e.AmortizedLowerBound())
	}
}

func TestDeletionCostAccounting(t *testing.T) {
	g0, err := workload.Star(8)
	if err != nil {
		t.Fatalf("Star: %v", err)
	}
	e, err := NewEngine(Config{Kappa: 4, Seed: 7}, g0)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()

	// Deleting a leaf opens a 1-node wound at the hub: one detection round,
	// then the sole member leads. No healing edges are needed.
	if err := e.Delete(3); err != nil {
		t.Fatalf("Delete leaf: %v", err)
	}
	costs := e.Costs()
	if len(costs) != 1 {
		t.Fatalf("costs = %d entries, want 1", len(costs))
	}
	leaf := costs[0]
	if leaf.Node != 3 || leaf.BlackDegree != 1 {
		t.Fatalf("leaf cost = %+v, want Node=3 BlackDegree=1", leaf)
	}
	if leaf.Messages < leaf.BlackDegree {
		t.Fatalf("leaf repair used %d messages, below the Lemma 5 floor %d",
			leaf.Messages, leaf.BlackDegree)
	}

	// Deleting the hub opens the full 7-leaf wound: detection, a real
	// election, and cloud dissemination.
	if err := e.Delete(0); err != nil {
		t.Fatalf("Delete hub: %v", err)
	}
	costs = e.Costs()
	hub := costs[1]
	if hub.BlackDegree != 7 {
		t.Fatalf("hub BlackDegree = %d, want 7", hub.BlackDegree)
	}
	if hub.Messages < 7 || hub.Rounds < 3 {
		t.Fatalf("hub cost = %+v: want >=7 messages and >=3 rounds", hub)
	}
	tot := e.Totals()
	if tot.Deletions != 2 {
		t.Fatalf("Deletions = %d, want 2", tot.Deletions)
	}
	if tot.Rounds != leaf.Rounds+hub.Rounds || tot.Messages != leaf.Messages+hub.Messages {
		t.Fatalf("totals %+v do not match cost ledger %+v", tot, costs)
	}
	wantAp := float64(leaf.BlackDegree+hub.BlackDegree) / 2
	if got := e.AmortizedLowerBound(); got != wantAp {
		t.Fatalf("A(p) = %v, want %v", got, wantAp)
	}
	if err := e.ValidateLocalViews(); err != nil {
		t.Fatalf("views after star repairs: %v", err)
	}
	if !e.Graph().IsConnected() {
		t.Fatal("healed star disconnected")
	}
}

// TestLemma5Floor: every repair must deliver at least as many messages as
// the deleted node's black degree — the Θ(deg) lower bound of Lemma 5.
func TestLemma5Floor(t *testing.T) {
	g0, err := workload.ErdosRenyi(48, 0.15, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatalf("ErdosRenyi: %v", err)
	}
	e, err := NewEngine(Config{Kappa: 4, Seed: 5}, g0)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 16; i++ {
		alive := e.State().AliveNodes()
		if err := e.Delete(alive[rng.Intn(len(alive))]); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	for _, c := range e.Costs() {
		if c.Messages < c.BlackDegree {
			t.Fatalf("deletion of %d: %d messages < black degree %d (Lemma 5 violated)",
				c.Node, c.Messages, c.BlackDegree)
		}
	}
}

// TestTheorem5Envelope checks the paper's cost theorem on its own substrate:
// a random 6-regular H-graph. Repairs must finish in O(log n) rounds and the
// amortized message count must stay within the κ·log₂(n)·A(p) envelope.
func TestTheorem5Envelope(t *testing.T) {
	const (
		n     = 64
		kappa = 4
	)
	e := regularEngine(t, n, 3, kappa, 11)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < n/4; i++ {
		alive := e.State().AliveNodes()
		if err := e.Delete(alive[rng.Intn(len(alive))]); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	logN := math.Log2(float64(n))
	maxRounds := 0
	for _, c := range e.Costs() {
		if c.Rounds > maxRounds {
			maxRounds = c.Rounds
		}
	}
	if float64(maxRounds) > 4*logN {
		t.Fatalf("max rounds %d exceeds O(log n) budget %0.1f", maxRounds, 4*logN)
	}
	amort := float64(e.Totals().Messages) / float64(e.Totals().Deletions)
	envelope := float64(kappa) * logN * e.AmortizedLowerBound()
	if amort > envelope {
		t.Fatalf("amortized %.1f messages/deletion exceeds Theorem 5 envelope %.1f", amort, envelope)
	}
	if err := e.ValidateLocalViews(); err != nil {
		t.Fatalf("views: %v", err)
	}
}

// TestLocalViewsUnderChurn is the property test: under random adversarial
// churn, after every single event, each node's message-built local view must
// equal the healed graph, and the engine must track the sequential reference
// implementation exactly (same seed, same events, same graph).
func TestLocalViewsUnderChurn(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		seed := seed
		g0, err := workload.ErdosRenyi(24, 0.2, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("seed %d: ErdosRenyi: %v", seed, err)
		}
		e, err := NewEngine(Config{Kappa: 4, Seed: seed}, g0)
		if err != nil {
			t.Fatalf("seed %d: NewEngine: %v", seed, err)
		}
		ref, err := core.NewState(core.Config{Kappa: 4, Seed: seed}, g0)
		if err != nil {
			t.Fatalf("seed %d: NewState: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed * 101))
		next := graph.NodeID(1000)
		for step := 0; step < 80; step++ {
			alive := e.State().AliveNodes()
			if len(alive) > 6 && rng.Intn(2) == 0 {
				v := alive[rng.Intn(len(alive))]
				if err := e.Delete(v); err != nil {
					t.Fatalf("seed %d step %d: Delete: %v", seed, step, err)
				}
				if err := ref.DeleteNode(v); err != nil {
					t.Fatalf("seed %d step %d: reference Delete: %v", seed, step, err)
				}
			} else {
				nbrs := []graph.NodeID{alive[rng.Intn(len(alive))]}
				if err := e.Insert(next, nbrs); err != nil {
					t.Fatalf("seed %d step %d: Insert: %v", seed, step, err)
				}
				if err := ref.InsertNode(next, nbrs); err != nil {
					t.Fatalf("seed %d step %d: reference Insert: %v", seed, step, err)
				}
				next++
			}
			if err := e.ValidateLocalViews(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if !e.Graph().Equal(ref.Graph()) {
				t.Fatalf("seed %d step %d: engine graph diverged from sequential reference", seed, step)
			}
		}
		if !e.Graph().IsConnected() {
			t.Fatalf("seed %d: disconnected after churn", seed)
		}
		e.Close()
	}
}

func TestInsertGreetings(t *testing.T) {
	e := regularEngine(t, 16, 2, 4, 3)
	before := e.Totals()
	if err := e.Insert(500, []graph.NodeID{0, 1, 2}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	after := e.Totals()
	if after.Rounds != before.Rounds+1 {
		t.Fatalf("insert took %d rounds, want 1", after.Rounds-before.Rounds)
	}
	if after.Messages != before.Messages+3 {
		t.Fatalf("insert used %d messages, want 3 greetings", after.Messages-before.Messages)
	}
	if err := e.ValidateLocalViews(); err != nil {
		t.Fatalf("views after insert: %v", err)
	}
	if err := e.Insert(500, []graph.NodeID{0}); err == nil {
		t.Fatal("duplicate insert should fail")
	}
	if err := e.Insert(501, []graph.NodeID{99999}); err == nil {
		t.Fatal("insert with dead neighbor should fail")
	}
}

func TestDeleteErrors(t *testing.T) {
	e := regularEngine(t, 12, 2, 4, 4)
	if err := e.Delete(99999); !errors.Is(err, core.ErrNodeMissing) {
		t.Fatalf("missing delete error = %v, want ErrNodeMissing", err)
	}
	if err := e.Delete(0); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := e.Delete(0); !errors.Is(err, core.ErrNodeMissing) {
		t.Fatalf("double delete error = %v, want ErrNodeMissing", err)
	}
}

func TestCloseSemantics(t *testing.T) {
	e := regularEngine(t, 12, 2, 4, 8)
	e.Close()
	e.Close() // idempotent
	if err := e.Delete(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete after Close = %v, want ErrClosed", err)
	}
	if err := e.Insert(100, []graph.NodeID{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after Close = %v, want ErrClosed", err)
	}
	if err := e.ValidateLocalViews(); !errors.Is(err, ErrClosed) {
		t.Fatalf("ValidateLocalViews after Close = %v, want ErrClosed", err)
	}
}

// TestWoundStateReleased: once a repair completes, no node may retain its
// wound state (the gathered reports would otherwise accumulate for the
// engine's lifetime, and stray election messages would corrupt it silently).
func TestWoundStateReleased(t *testing.T) {
	e := regularEngine(t, 24, 3, 4, 14)
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 5; i++ {
		alive := e.State().AliveNodes()
		if err := e.Delete(alive[rng.Intn(len(alive))]); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	for id, nd := range e.nodes {
		if nd.wound != nil {
			t.Fatalf("node %d still holds wound state for victim %d after repair",
				id, nd.wound.victim)
		}
	}
}

// TestDeterminism: equal seeds and event sequences must produce identical
// cost ledgers and healed graphs (the adversary is oblivious to the seed,
// but runs must be reproducible).
func TestDeterminism(t *testing.T) {
	run := func() ([]DeletionCost, *graph.Graph) {
		e := regularEngine(t, 32, 3, 4, 21)
		rng := rand.New(rand.NewSource(22))
		for i := 0; i < 8; i++ {
			alive := e.State().AliveNodes()
			if err := e.Delete(alive[rng.Intn(len(alive))]); err != nil {
				t.Fatalf("Delete: %v", err)
			}
		}
		return e.Costs(), e.Graph().Clone()
	}
	costsA, graphA := run()
	costsB, graphB := run()
	if len(costsA) != len(costsB) {
		t.Fatalf("cost ledger lengths differ: %d vs %d", len(costsA), len(costsB))
	}
	for i := range costsA {
		if costsA[i] != costsB[i] {
			t.Fatalf("deletion %d cost diverged: %+v vs %+v", i, costsA[i], costsB[i])
		}
	}
	if !graphA.Equal(graphB) {
		t.Fatal("healed graphs diverged across identical runs")
	}
}

// TestValidateDetectsDivergence corrupts one node's view directly and checks
// that the conformance check actually fails — the check must not be vacuous.
func TestValidateDetectsDivergence(t *testing.T) {
	e := regularEngine(t, 12, 2, 4, 9)
	if err := e.ValidateLocalViews(); err != nil {
		t.Fatalf("fresh views: %v", err)
	}
	var victim *node
	for _, nd := range e.nodes {
		victim = nd
		break
	}
	victim.view = append(victim.view, graph.NodeID(424242))
	if err := e.ValidateLocalViews(); err == nil {
		t.Fatal("corrupted view not detected")
	}
}

// TestEngineSpawnsNoGoroutines: the engine runs its rounds on the caller's
// goroutine, so building, churning, snapshotting and restoring it leave the
// goroutine count unchanged. Every local view is the node's own copy, never
// the graph's neighbor storage: an aliased view would make
// ValidateLocalViews compare the graph with itself, and it could not fail.
func TestEngineSpawnsNoGoroutines(t *testing.T) {
	// The previous test's goroutine may still be exiting, so the count may
	// fall; it must never rise.
	base := runtime.NumGoroutine()
	goroutines := func(step string) {
		t.Helper()
		if got := runtime.NumGoroutine(); got > base {
			t.Fatalf("after %s: %d goroutines, want at most %d", step, got, base)
		}
	}
	ownViews := func(step string, e *Engine) {
		t.Helper()
		for id, nd := range e.nodes {
			if nbrs := e.Graph().Neighbors(id); len(nd.view) > 0 && len(nbrs) > 0 && &nd.view[0] == &nbrs[0] {
				t.Fatalf("after %s: node %d's view aliases the graph's neighbor storage", step, id)
			}
		}
	}

	e := regularEngine(t, 2000, 3, 4, 31)
	goroutines("NewEngine")
	ownViews("NewEngine", e)

	rng := rand.New(rand.NewSource(32))
	next := graph.NodeID(1 << 20)
	for i := 0; i < 20; i++ {
		alive := e.State().AliveNodes()
		if err := e.Insert(next, []graph.NodeID{alive[rng.Intn(len(alive))]}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		next++
		if err := e.Delete(alive[rng.Intn(len(alive))]); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	alive := e.State().AliveNodes()
	b := core.Batch{
		Insertions: []core.BatchInsertion{{Node: next, Neighbors: []graph.NodeID{alive[0], alive[1]}}},
		Deletions:  []graph.NodeID{alive[2], alive[3]},
	}
	if err := e.ApplyBatch(b); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	goroutines("churn")

	data, err := e.SnapshotState()
	if err != nil {
		t.Fatalf("SnapshotState: %v", err)
	}
	snap, err := LoadSnapshot(data)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	restored, err := RestoreEngine(snap)
	if err != nil {
		t.Fatalf("RestoreEngine: %v", err)
	}
	defer restored.Close()
	goroutines("RestoreEngine")
	ownViews("RestoreEngine", restored)
	if err := restored.ValidateLocalViews(); err != nil {
		t.Fatalf("restored views: %v", err)
	}
}
