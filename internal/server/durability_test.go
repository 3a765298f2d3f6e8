package server

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/checkpoint"
	"github.com/xheal/xheal/internal/core"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/trace"
)

const recoverySeed = 5

func ringGraph(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.EnsureEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	return g
}

type schedEvent struct {
	del  bool
	node graph.NodeID
	nbrs []graph.NodeID
}

func (ev schedEvent) adversary() adversary.Event {
	if ev.del {
		return adversary.Event{Kind: adversary.Delete, Node: ev.node}
	}
	return adversary.Event{Kind: adversary.Insert, Node: ev.node, Neighbors: ev.nbrs}
}

func mustEngine(t *testing.T, name string, g0 *graph.Graph) Engine {
	t.Helper()
	eng, err := NewEngine(name, 4, recoverySeed, g0)
	if err != nil {
		t.Fatalf("%s engine: %v", name, err)
	}
	return eng
}

func applySched(t *testing.T, eng Engine, ev schedEvent) {
	t.Helper()
	var b core.Batch
	if ev.del {
		b.Deletions = []graph.NodeID{ev.node}
	} else {
		b.Insertions = []core.BatchInsertion{{Node: ev.node, Neighbors: ev.nbrs}}
	}
	if err := eng.ApplyBatch(b); err != nil {
		t.Fatalf("apply %+v: %v", ev, err)
	}
}

// genServerSchedule records a random insert/delete schedule by driving a
// scratch engine of the target type, so the same sequence replays valid
// through every incarnation of the run.
func genServerSchedule(t *testing.T, engineName string, g0 *graph.Graph, steps int, seed int64) []schedEvent {
	t.Helper()
	eng := mustEngine(t, engineName, g0.Clone())
	rng := rand.New(rand.NewSource(seed))
	next := graph.NodeID(500000)
	events := make([]schedEvent, 0, steps)
	for step := 0; step < steps; step++ {
		alive := eng.Graph().Nodes()
		var ev schedEvent
		if len(alive) > 5 && rng.Float64() < 0.45 {
			ev = schedEvent{del: true, node: alive[rng.Intn(len(alive))]}
		} else {
			k := 1 + rng.Intn(3)
			if k > len(alive) {
				k = len(alive)
			}
			nbrs := make([]graph.NodeID, 0, k)
			for _, i := range rng.Perm(len(alive))[:k] {
				nbrs = append(nbrs, alive[i])
			}
			ev = schedEvent{node: next, nbrs: nbrs}
			next++
		}
		applySched(t, eng, ev)
		events = append(events, ev)
	}
	return events
}

func snapshotBytes(t *testing.T, eng Engine) []byte {
	t.Helper()
	data, err := eng.SnapshotState()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return data
}

// longTailCrashPoint finds a crash point the checkpoint rule makes
// interesting: the first k, off the opportunity grid, at which the change
// since the last image has already reached the structure's size — a crash
// there leaves the previous image and a tail longer than the spacing.
func longTailCrashPoint(t *testing.T, engineName string, g0 *graph.Graph, schedule []schedEvent, every int) int {
	t.Helper()
	eng := mustEngine(t, engineName, g0.Clone())
	s := New(eng, Config{Checkpoints: checkpoint.NewMemStore(), CheckpointEvery: every})
	defer s.Close()
	for i, ev := range schedule {
		if err := s.Submit(context.Background(), ev.adversary()); err != nil {
			t.Fatalf("probe submit %d: %v", i, err)
		}
		awaitTickEnd(s)
		d := s.Health().Durability
		if k := i + 1; k%every != 0 && d.Checkpoints > 0 && d.ChangesSinceCheckpoint >= d.CheckpointDueAtChanges {
			return k
		}
	}
	t.Fatal("the schedule never crosses the checkpoint threshold off the opportunity grid")
	return 0
}

// v1CheckpointFile is what a daemon before format version 2 left in its
// checkpoint directory: one JSON envelope around a JSON state.
const v1CheckpointFile = `{"version":1,"tick":2,"events":2,"engine":"core","kappa":4,"seed":5,` +
	`"state":{"version":1,"kappa":4,"seed":5,"rng_draws":0,"graph":{"nodes":[0,1],"edges":[{"U":0,"V":1}]}},` +
	`"checksum":"0000000000000000000000000000000000000000000000000000000000000000"}`

// TestServerCrashRecoveryIdentity is the serving-stack recovery-identity
// property, for both engines: at every crash point k, a daemon that applied
// and acknowledged k events is abandoned mid-run (no shutdown, exactly what a
// SIGKILL leaves on disk), a new incarnation recovers from checkpoint +
// durable log tail, the recovered state must byte-match a from-genesis replay
// of the log, and after serving the remaining events the final state must
// byte-match an uncrashed run. A final clean restart must replay zero tail
// events (the shutdown checkpoint covers the whole log).
//
// Two crash points are there for the checkpoint rule: one after the change
// threshold is crossed but before the next opportunity (recovery gets the
// previous image and a tail longer than the spacing), and one before the
// first image with a version-1 JSON file in the store (not a checkpoint to
// this version: recovery replays the log from genesis).
func TestServerCrashRecoveryIdentity(t *testing.T) {
	for _, engineName := range []string{EngineCore, EngineDist} {
		t.Run(engineName, func(t *testing.T) {
			g0 := ringGraph(14)
			const steps, every = 40, 3
			schedule := genServerSchedule(t, engineName, g0, steps, 101)

			genesis := mustEngine(t, engineName, g0.Clone())
			for _, ev := range schedule {
				applySched(t, genesis, ev)
			}
			want := snapshotBytes(t, genesis)

			type crashPoint struct {
				k        int
				longTail bool // recovery must find an image and a tail > every
				plantV1  bool // a v1 JSON file sits in the store; no image yet
			}
			var points []crashPoint
			for k := 0; k <= steps; k += 8 {
				points = append(points, crashPoint{k: k})
			}
			points = append(points,
				crashPoint{k: longTailCrashPoint(t, engineName, g0, schedule, every), longTail: true},
				crashPoint{k: every - 1, plantV1: true})

			ctx := context.Background()
			for _, cp := range points {
				k := cp.k
				dir := t.TempDir()
				logDir := filepath.Join(dir, "log")
				store, err := checkpoint.NewFileStore(filepath.Join(dir, "checkpoints"), 3)
				if err != nil {
					t.Fatalf("k=%d: store: %v", k, err)
				}
				fl, err := trace.OpenFileLog(logDir, g0, 0, 0, "")
				if err != nil {
					t.Fatalf("k=%d: log: %v", k, err)
				}
				durable := Config{
					Log: fl, Checkpoints: store, CheckpointEvery: every, ArchiveLog: true,
					EngineName: engineName, Seed: recoverySeed, GenesisDigest: GenesisDigest(g0),
				}
				engA := mustEngine(t, engineName, g0.Clone())
				sA := New(engA, durable)
				for i, ev := range schedule[:k] {
					if err := sA.Submit(ctx, ev.adversary()); err != nil {
						t.Fatalf("k=%d: submit %d: %v", k, i, err)
					}
				}
				// Crash: stop sA dead — no drain, no final checkpoint. The
				// ack of event k-1 may still have had its checkpoint, rotation
				// and compaction ahead of it; crash returns once the loop is
				// gone, so nothing moves segments while recovery lists the
				// directory, and disk holds what a SIGKILL would leave.
				sA.crash()
				fl.Close()
				if cp.plantV1 {
					name := filepath.Join(dir, "checkpoints", "ckpt-0000000000000002-0000000000000002.json")
					if err := os.WriteFile(name, []byte(v1CheckpointFile), 0o644); err != nil {
						t.Fatalf("k=%d: plant v1 checkpoint: %v", k, err)
					}
				}

				rc := RecoverConfig{
					Store: store, LogDir: logDir,
					Engine: engineName, Kappa: 4, Seed: recoverySeed, Genesis: g0.Clone(),
				}
				rec, err := Recover(rc)
				if err != nil {
					t.Fatalf("k=%d: recover: %v", k, err)
				}
				if rec.Events != uint64(k) {
					t.Fatalf("k=%d: recovered %d events (replayed %d), want %d",
						k, rec.Events, rec.Replayed, k)
				}
				if cp.longTail && (!rec.FromCheckpoint || rec.Replayed <= every) {
					t.Fatalf("k=%d: recovered from checkpoint=%v with a tail of %d, want the previous image and a tail longer than the spacing %d",
						k, rec.FromCheckpoint, rec.Replayed, every)
				}
				if cp.plantV1 && (rec.FromCheckpoint || rec.Replayed != k) {
					t.Fatalf("k=%d: with only a v1 file in the store, recovered from checkpoint=%v replaying %d; want the log from genesis",
						k, rec.FromCheckpoint, rec.Replayed)
				}
				if err := VerifyRecovery(rec.Engine, engineName, logDir, 4, recoverySeed); err != nil {
					t.Fatalf("k=%d: recovery identity: %v", k, err)
				}

				// Resume serving the rest of the schedule on a new daemon.
				flB, err := trace.OpenFileLog(logDir, g0, rec.Tick, rec.Events, "")
				if err != nil {
					t.Fatalf("k=%d: reopen log: %v", k, err)
				}
				cfgB := durable
				cfgB.Log = flB
				cfgB.Resume = Resume{Tick: rec.Tick, Events: rec.Events, Changes: rec.Changes}
				sB := New(rec.Engine, cfgB)
				for i, ev := range schedule[k:] {
					if err := sB.Submit(ctx, ev.adversary()); err != nil {
						t.Fatalf("k=%d: resume submit %d: %v", k, i, err)
					}
				}
				if err := sB.Close(); err != nil {
					t.Fatalf("k=%d: close resumed server: %v", k, err)
				}
				if got := snapshotBytes(t, rec.Engine); !bytes.Equal(want, got) {
					t.Fatalf("k=%d: final state diverged from uncrashed run", k)
				}

				// A clean restart recovers from the shutdown checkpoint with
				// an empty tail: compaction left nothing to replay.
				rec2, err := Recover(rc)
				if err != nil {
					t.Fatalf("k=%d: clean restart: %v", k, err)
				}
				if rec2.Replayed != 0 || rec2.Events != steps {
					t.Fatalf("k=%d: clean restart replayed %d events at watermark %d, want 0 at %d",
						k, rec2.Replayed, rec2.Events, steps)
				}
				if got := snapshotBytes(t, rec2.Engine); !bytes.Equal(want, got) {
					t.Fatalf("k=%d: clean-restart state diverged", k)
				}
			}
		})
	}
}

// TestRecoverLogGapClosesEngine: a checkpoint older than the compacted log's
// base fails recovery with ErrLogGap, and the engine restored from that
// checkpoint leaves no goroutine behind.
func TestRecoverLogGapClosesEngine(t *testing.T) {
	g0 := ringGraph(10)
	store := checkpoint.NewMemStore()
	eng := mustEngine(t, EngineDist, g0.Clone())
	c := &checkpoint.Checkpoint{
		Version: checkpoint.Version, Engine: EngineDist, Kappa: 4, Seed: recoverySeed,
		Genesis: GenesisDigest(g0), State: snapshotBytes(t, eng),
	}
	c.Seal()
	if err := store.Save(c); err != nil {
		t.Fatalf("save: %v", err)
	}
	logDir := filepath.Join(t.TempDir(), "log")
	fl, err := trace.OpenFileLog(logDir, g0, 5, 5, "") // the log's first 5 events are gone
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	if err := fl.Close(); err != nil {
		t.Fatalf("close log: %v", err)
	}

	before := runtime.NumGoroutine()
	_, err = Recover(RecoverConfig{
		Store: store, LogDir: logDir,
		Engine: EngineDist, Kappa: 4, Seed: recoverySeed, Genesis: g0,
	})
	if !errors.Is(err, trace.ErrLogGap) {
		t.Fatalf("Recover = %v, want ErrLogGap", err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before the failed Recover, %d after: the restored engine leaked",
			before, after)
	}
}

// TestRecoverRejectsMismatchedRun pins the config-mismatch guard: engine,
// κ, seed, and genesis graph must all match the checkpoint being resumed.
func TestRecoverRejectsMismatchedRun(t *testing.T) {
	g0 := ringGraph(10)
	store := checkpoint.NewMemStore()
	eng := mustEngine(t, EngineCore, g0.Clone())
	state := snapshotBytes(t, eng)
	c := &checkpoint.Checkpoint{
		Version: checkpoint.Version, Tick: 0, Events: 0,
		Engine: EngineCore, Kappa: 4, Seed: recoverySeed,
		Genesis: GenesisDigest(g0), State: state,
	}
	c.Seal()
	if err := store.Save(c); err != nil {
		t.Fatalf("save: %v", err)
	}
	for _, rc := range []RecoverConfig{
		{Store: store, Engine: EngineDist, Kappa: 4, Seed: recoverySeed},
		{Store: store, Engine: EngineCore, Kappa: 6, Seed: recoverySeed},
		{Store: store, Engine: EngineCore, Kappa: 4, Seed: recoverySeed + 1},
		// Same engine/κ/seed but a different initial topology — the
		// restarted-with-different-workload-flags mistake.
		{Store: store, Engine: EngineCore, Kappa: 4, Seed: recoverySeed, Genesis: ringGraph(12)},
	} {
		if _, err := Recover(rc); !errors.Is(err, ErrRecoveryMismatch) {
			t.Fatalf("mismatched recovery %+v: %v, want ErrRecoveryMismatch", rc, err)
		}
	}
	// The matching genesis passes, as does a legacy checkpoint without a
	// recorded digest.
	if _, err := Recover(RecoverConfig{Store: store, Engine: EngineCore, Kappa: 4,
		Seed: recoverySeed, Genesis: ringGraph(10)}); err != nil {
		t.Fatalf("matched recovery: %v", err)
	}
	c.Genesis = ""
	c.Seal()
	if err := store.Save(c); err != nil {
		t.Fatalf("save legacy: %v", err)
	}
	if _, err := Recover(RecoverConfig{Store: store, Engine: EngineCore, Kappa: 4,
		Seed: recoverySeed, Genesis: ringGraph(12)}); err != nil {
		t.Fatalf("legacy checkpoint without digest: %v", err)
	}
}

// savedTicks records the tick of every image that reaches the store.
type savedTicks struct {
	checkpoint.Store
	ticks []uint64
}

func (r *savedTicks) Save(c *checkpoint.Checkpoint) error {
	err := r.Store.Save(c)
	if err == nil {
		r.ticks = append(r.ticks, c.Tick)
	}
	return err
}

// The checkpoint trigger is a function of the event stream and the store's
// contents, nothing else: the same schedule images at the same ticks every
// time — at the first opportunity, then only at opportunities where the
// change since the last image has reached the structure's size — and a daemon
// that crashes anywhere and resumes from Recover's watermarks and change
// count images at exactly the opportunities the uncrashed one does. (Every
// tick here is one event, so recovery's one-event-per-tick replay numbers the
// ticks as the first incarnation did.)
func TestCheckpointTriggerFollowsTheEventStream(t *testing.T) {
	g0 := ringGraph(14)
	const steps, every = 48, 3
	schedule := genServerSchedule(t, EngineCore, g0, steps, 303)
	ctx := context.Background()

	// run serves the schedule, crashing and recovering after crashAt events
	// (never, when crashAt is 0), and returns the ticks of every image saved.
	run := func(crashAt int) []uint64 {
		dir := t.TempDir()
		logDir := filepath.Join(dir, "log")
		fs, err := checkpoint.NewFileStore(filepath.Join(dir, "checkpoints"), 3)
		if err != nil {
			t.Fatal(err)
		}
		store := &savedTicks{Store: fs}
		cfg := Config{
			Checkpoints: store, CheckpointEvery: every, ArchiveLog: true,
			EngineName: EngineCore, Seed: recoverySeed, GenesisDigest: GenesisDigest(g0),
		}
		eng := mustEngine(t, EngineCore, g0.Clone())
		rest := schedule
		if crashAt > 0 {
			fl, err := trace.OpenFileLog(logDir, g0, 0, 0, "")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Log = fl
			s := New(eng, cfg)
			for _, ev := range schedule[:crashAt] {
				if err := s.Submit(ctx, ev.adversary()); err != nil {
					t.Fatalf("crashAt=%d: %v", crashAt, err)
				}
			}
			s.crash()
			fl.Close()
			rec, err := Recover(RecoverConfig{
				Store: store, LogDir: logDir,
				Engine: EngineCore, Kappa: 4, Seed: recoverySeed, Genesis: g0.Clone(),
			})
			if err != nil {
				t.Fatalf("crashAt=%d: recover: %v", crashAt, err)
			}
			if rec.Tick != uint64(crashAt) {
				t.Fatalf("crashAt=%d: recovered at tick %d", crashAt, rec.Tick)
			}
			eng, rest = rec.Engine, schedule[crashAt:]
			cfg.Resume = Resume{Tick: rec.Tick, Events: rec.Events, Changes: rec.Changes}
		}
		fl, err := trace.OpenFileLog(logDir, g0, cfg.Resume.Tick, cfg.Resume.Events, "")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Log = fl
		s := New(eng, cfg)
		for _, ev := range rest {
			if err := s.Submit(ctx, ev.adversary()); err != nil {
				t.Fatalf("crashAt=%d: %v", crashAt, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("crashAt=%d: close: %v", crashAt, err)
		}
		return store.ticks
	}

	want := run(0)
	if again := run(0); !slices.Equal(want, again) {
		t.Fatalf("the same schedule imaged at ticks %v, then at %v", want, again)
	}
	if len(want) < 4 || want[0] != every || len(want) > steps/every/2 {
		t.Fatalf("images at ticks %v: want the first at the first opportunity (tick %d), several more, and most of the %d opportunities passed over",
			want, every, steps/every)
	}
	for _, tick := range want[:len(want)-1] { // the last is the final drain's
		if tick%every != 0 {
			t.Fatalf("image at tick %d is off the opportunity grid (every %d): %v", tick, every, want)
		}
	}
	for crashAt := 1; crashAt < steps; crashAt += 2 {
		if got := run(crashAt); !slices.Equal(want, got) {
			t.Fatalf("crash after %d events: images at ticks %v, the uncrashed run's are %v", crashAt, got, want)
		}
	}
}
