package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"

	"github.com/xheal/xheal/internal/checkpoint"
	"github.com/xheal/xheal/internal/core"
	"github.com/xheal/xheal/internal/dist"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/trace"
)

// This file is the server's durability seam: checkpoints of the engine's
// complete state — an image whenever the graph has changed by its own size,
// see checkpointSizeDivisor in server.go — log rotation/compaction anchored
// on them, and startup recovery (checkpoint + log-tail replay) with an
// optional recovery-identity check against a from-genesis replay.
//
// The ordering contract that makes acknowledged events crash-safe is
// log-before-ack (apply → log append → ack, all inside one tick) plus
// checkpoint-after-log: a checkpoint's Events watermark never runs ahead of
// the durable log, so recovery always finds the tail it needs.

// Engine names accepted by checkpoints and recovery.
const (
	EngineCore = "core"
	EngineDist = "dist"
)

// ErrRecoveryMismatch reports that a checkpoint store belongs to a
// differently-configured run (engine, κ, seed, or genesis graph) than the
// daemon resuming from it, or that the recovered state diverges from the
// from-genesis replay.
var ErrRecoveryMismatch = errors.New("server: recovery mismatch")

// GenesisDigest fingerprints an initial graph: hex(sha256) over the sorted
// node and edge lists (graph.Nodes and graph.Edges are canonical). Stamped
// into checkpoint envelopes (Config.GenesisDigest) and checked by Recover, so
// a daemon restarted under different workload flags fails loudly instead of
// resuming a checkpoint whose genesis its log headers would misdescribe.
func GenesisDigest(g *graph.Graph) string {
	h := sha256.New()
	for _, n := range g.Nodes() {
		fmt.Fprintf(h, "n%d;", n)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(h, "e%d-%d;", e.U, e.V)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkpointLocked snapshots the engine and saves a checkpoint, then rotates
// and compacts the event log behind it. Caller holds s.mu and publishes
// afterwards. Failures are counted, never fatal: the daemon keeps serving on
// its log alone, the previous checkpoint still recovers, and the change
// counter keeps what it holds, so the next opportunity tries again.
func (s *Server) checkpointLocked() {
	store := s.cfg.Checkpoints
	if store == nil {
		return
	}
	// A broken log must not advance the checkpoint watermark: events past
	// the failure were applied but never made durable, and a checkpoint
	// covering them would paper over the loss.
	if s.logErr != nil {
		return
	}
	// Nothing applied since the last checkpoint — saving again would write
	// an identical state under a new name and churn a log segment.
	if s.counters.Checkpoints > 0 && s.counters.LastCheckpointEvents == s.counters.EventsApplied {
		return
	}
	data, err := s.eng.SnapshotState()
	if err != nil {
		s.counters.CheckpointErrors++
		return
	}
	c := &checkpoint.Checkpoint{
		Version: checkpoint.Version,
		Tick:    s.counters.Ticks,
		Events:  s.counters.EventsApplied,
		Engine:  s.cfg.EngineName,
		Kappa:   s.eng.Kappa(),
		Seed:    s.cfg.Seed,
		Genesis: s.cfg.GenesisDigest,
		State:   data,
	}
	c.Seal()
	if err := store.Save(c); err != nil {
		s.counters.CheckpointErrors++
		return
	}
	s.counters.Checkpoints++
	s.counters.LastCheckpointTick = c.Tick
	s.counters.LastCheckpointEvents = c.Events
	s.changes = 0
	if rl, ok := s.cfg.Log.(RotatingLog); ok {
		if err := rl.Rotate(c.Tick, c.Name()); err != nil {
			s.failLog(err)
			return
		}
		if err := rl.Compact(c.Events, s.cfg.ArchiveLog); err != nil {
			s.counters.CheckpointErrors++
		}
	}
}

// RecoverConfig parameterizes Recover.
type RecoverConfig struct {
	// Store is the checkpoint store (optional: recovery then replays the
	// whole log from genesis).
	Store checkpoint.Store
	// LogDir is the segmented event-log directory (optional: recovery then
	// restores the checkpoint alone).
	LogDir string
	// Engine, Kappa, and Seed must match the run being resumed; a mismatch
	// against the newest checkpoint fails with ErrRecoveryMismatch.
	Engine string
	Kappa  int
	Seed   int64
	// Genesis is the initial graph, used when neither a checkpoint nor a log
	// exists (first boot) — a log's own header also carries it. When the
	// newest checkpoint recorded a genesis digest, Genesis is checked against
	// it (GenesisDigest) and a mismatch — e.g. restarting under different
	// -workload/-n flags — fails with ErrRecoveryMismatch.
	Genesis *graph.Graph
}

// Recovered describes what Recover rebuilt.
type Recovered struct {
	// Engine is ready to serve; pass Tick/Events/Changes as Config.Resume.
	Engine Engine
	Tick   uint64
	Events uint64
	// Changes is how far the recovered state is ahead of the image it was
	// built on, in the checkpoint rule's unit (see Resume.Changes): the
	// structural change of the replayed tail — plus, when no image was
	// found, the size of the genesis graph, which no image holds either.
	Changes uint64
	// FromCheckpoint is false when the state was replayed from genesis.
	FromCheckpoint bool
	// Replayed counts log-tail events applied on top of the base state;
	// TornTail reports that the log's final line was crash-truncated (and
	// dropped — by log-before-ack it was never acknowledged).
	Replayed int
	TornTail bool
}

// Recover rebuilds engine state after a crash or restart: newest valid
// checkpoint (if any), then replay of the durable log tail past the
// checkpoint's Events watermark. Each replayed event is applied as its own
// timestep, so the recovered Tick watermark advances by one per tail event.
//
// That per-event replay means the recovered Tick deliberately diverges from
// the crashed process's tick count whenever the original run batched several
// events into one timestep: the log records event order, not batch
// boundaries, and engine state is batching-insensitive (replay-identity),
// so only the Events watermark is exact across a restart. Tick stays
// monotone — which is all its consumers (checkpoint names, log-segment
// anchors, span tick stamps, last_checkpoint_tick) require — but tick-keyed
// artifacts from before and after a crash must not be compared numerically.
func Recover(rc RecoverConfig) (*Recovered, error) {
	var ck *checkpoint.Checkpoint
	if rc.Store != nil {
		c, err := rc.Store.Load()
		switch {
		case err == nil:
			ck = c
		case errors.Is(err, checkpoint.ErrNotFound):
		default:
			return nil, err
		}
	}
	if ck != nil {
		if ck.Engine != rc.Engine || ck.Kappa != rc.Kappa || ck.Seed != rc.Seed {
			return nil, fmt.Errorf("%w: checkpoint is %s/κ=%d/seed=%d, daemon is %s/κ=%d/seed=%d",
				ErrRecoveryMismatch, ck.Engine, ck.Kappa, ck.Seed, rc.Engine, rc.Kappa, rc.Seed)
		}
		if ck.Genesis != "" && rc.Genesis != nil && ck.Genesis != GenesisDigest(rc.Genesis) {
			return nil, fmt.Errorf("%w: checkpoint was taken over a different genesis graph (check -workload/-n flags)",
				ErrRecoveryMismatch)
		}
	}

	var tr *trace.Trace
	if rc.LogDir != "" {
		t, err := trace.LoadLogDir(rc.LogDir)
		switch {
		case err == nil:
			tr = t
		case errors.Is(err, os.ErrNotExist):
		default:
			return nil, err
		}
	}

	rec := &Recovered{}
	var err error
	if ck != nil {
		rec.Engine, err = restoreEngine(rc.Engine, ck.State)
		if err != nil {
			return nil, err
		}
		rec.FromCheckpoint = true
		rec.Tick, rec.Events = ck.Tick, ck.Events
	} else {
		g0 := rc.Genesis
		if tr != nil {
			if tr.BaseEvents != 0 {
				return nil, fmt.Errorf("%w: log starts at event %d but no checkpoint covers the prefix",
					ErrRecoveryMismatch, tr.BaseEvents)
			}
			g0 = tr.Initial()
		}
		if g0 == nil {
			return nil, fmt.Errorf("%w: no checkpoint, no log, and no genesis graph", ErrRecoveryMismatch)
		}
		rec.Engine, err = NewEngine(rc.Engine, rc.Kappa, rc.Seed, g0)
		if err != nil {
			return nil, err
		}
		rec.Changes = structureSize(rec.Engine)
	}

	if tr != nil {
		if rec.Events < tr.BaseEvents {
			return nil, fmt.Errorf("%w: checkpoint at event %d predates compacted log base %d",
				trace.ErrLogGap, rec.Events, tr.BaseEvents)
		}
		idx := rec.Events - tr.BaseEvents
		if idx > uint64(len(tr.Events)) {
			return nil, fmt.Errorf("%w: checkpoint at event %d is ahead of durable log end %d",
				ErrRecoveryMismatch, rec.Events, tr.BaseEvents+uint64(len(tr.Events)))
		}
		rec.TornTail = tr.TornTail
		for i, ev := range tr.Events[idx:] {
			delta, err := applyLogged(rec.Engine, ev)
			if err != nil {
				return nil, fmt.Errorf("server: replay tail event %d: %w", i, err)
			}
			rec.Changes += deltaSize(delta)
			rec.Events++
			rec.Tick++
			rec.Replayed++
		}
	}
	if err := rec.Engine.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("server: recovered state: %w", err)
	}
	return rec, nil
}

// VerifyRecovery asserts recovery identity: a fresh engine replaying the full
// from-genesis history (archived + live log segments) one event per timestep
// must reach a byte-identical snapshot to the recovered engine — the
// strongest replay check the snapshot layer offers, and engine batching must
// not affect it. Requires the log to have been compacted in archive mode
// (Config.ArchiveLog) so the prefix survives.
func VerifyRecovery(recovered Engine, engineName, logDir string, kappa int, seed int64) error {
	full, err := trace.LoadFullLog(logDir)
	if err != nil {
		return err
	}
	if full.BaseEvents != 0 {
		return fmt.Errorf("%w: genesis history compacted away (run with log archiving to verify)",
			ErrRecoveryMismatch)
	}
	fresh, err := NewEngine(engineName, kappa, seed, full.Initial())
	if err != nil {
		return err
	}
	for i, ev := range full.Events {
		if _, err := applyLogged(fresh, ev); err != nil {
			return fmt.Errorf("server: genesis replay event %d: %w", i, err)
		}
	}
	want, err := fresh.SnapshotState()
	if err != nil {
		return err
	}
	got, err := recovered.SnapshotState()
	if err != nil {
		return err
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("%w: engine state differs from from-genesis replay", ErrRecoveryMismatch)
	}
	return nil
}

// applyLogged applies one logged event as its own timestep and returns the
// structural change it made.
func applyLogged(eng Engine, ev trace.Event) (core.TickDelta, error) {
	var b core.Batch
	switch ev.Kind {
	case "insert":
		b.Insertions = []core.BatchInsertion{{Node: ev.Node, Neighbors: ev.Neighbors}}
	case "delete":
		b.Deletions = []graph.NodeID{ev.Node}
	default:
		return core.TickDelta{}, fmt.Errorf("server: replay: %w: kind %q", trace.ErrBadEvent, ev.Kind)
	}
	return eng.ApplyBatchDelta(b, 1)
}

// NewEngine builds a fresh engine of the named kind (EngineCore or
// EngineDist) over the genesis graph g0.
func NewEngine(name string, kappa int, seed int64, g0 *graph.Graph) (Engine, error) {
	switch name {
	case EngineCore:
		st, err := core.NewState(core.Config{Kappa: kappa, Seed: seed}, g0)
		if err != nil {
			return nil, err
		}
		return st, nil
	case EngineDist:
		e, err := dist.NewEngine(dist.Config{Kappa: kappa, Seed: seed}, g0)
		if err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, fmt.Errorf("%w: unknown engine %q", ErrRecoveryMismatch, name)
	}
}

func restoreEngine(name string, state []byte) (Engine, error) {
	switch name {
	case EngineCore:
		snap, err := core.LoadSnapshot(state)
		if err != nil {
			return nil, err
		}
		return core.RestoreState(snap)
	case EngineDist:
		snap, err := dist.LoadSnapshot(state)
		if err != nil {
			return nil, err
		}
		return dist.RestoreEngine(snap)
	default:
		return nil, fmt.Errorf("%w: unknown engine %q", ErrRecoveryMismatch, name)
	}
}
