package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/checkpoint"
	"github.com/xheal/xheal/internal/core"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/metrics"
	"github.com/xheal/xheal/internal/obs"
)

// Engine is the healing engine a Server drives — the whole contract, so the
// serving path never asks an engine what it can do. Both core.State (the
// sequential Algorithm 3.1 reference) and dist.Engine (the §5 message
// protocol) satisfy it, so a daemon hosts either interchangeably; a further
// backend implements this one interface.
type Engine interface {
	// DeltaBatcher is how the tick loop applies a batch; ApplyBatch is the
	// delta-less form recovery replays logged events through.
	DeltaBatcher
	ApplyBatch(core.Batch) error
	Admitter
	CheckInvariants() error
	Snapshotter
	SetRecorder(*obs.Recorder)
	Graph() *graph.Graph
	Baseline() *graph.Graph
	Kappa() int
}

// Sentinel errors.
var (
	// ErrClosed is returned by Submit after Close has begun.
	ErrClosed = errors.New("server: closed")
	// ErrBacklog is the backpressure signal: the bounded ingest queue is
	// full and the event was not accepted.
	ErrBacklog = errors.New("server: ingest queue is full")
	// ErrTooManyConflicts rejects an event deferred past Config.MaxDefer
	// ticks by repeated intra-tick conflicts.
	ErrTooManyConflicts = errors.New("server: event conflicted for too many consecutive ticks")
	// ErrTooFewNodes rejects a deletion that would shrink the network below
	// Config.MinNodes.
	ErrTooFewNodes = errors.New("server: deletion refused, too few nodes would remain")
	// ErrNotDurable reports that the event log failed (disk full, I/O error):
	// the log-before-ack contract can no longer be honored, so the batch that
	// hit the failure and every later submission are failed rather than
	// acknowledged non-durably. The daemon stays up for reads (health,
	// metrics, graph) but refuses writes until restarted over healthy storage.
	ErrNotDurable = errors.New("server: event log failed, refusing non-durable writes")
)

// Config parameterizes a Server. The zero value is usable: immediate ticks,
// defaults for every bound, no event log.
type Config struct {
	// Tick is the coalescing window: once the loop picks up a first event it
	// keeps gathering arrivals for this long (capped by MaxBatch) before
	// applying the batch. 0 applies whatever has already arrived — batching
	// then emerges from submissions that pile up while a batch is applying.
	Tick time.Duration
	// QueueDepth bounds the ingest queue (default 1024). A full queue fails
	// Submit with ErrBacklog.
	QueueDepth int
	// MaxBatch caps events per timestep (default 256).
	MaxBatch int
	// MaxDefer caps how many consecutive ticks one event may be deferred by
	// intra-tick conflicts before it is rejected (default 4).
	MaxDefer int
	// MinNodes refuses deletions that would leave fewer alive nodes
	// (default 2: healing and measurement both want a non-trivial graph).
	MinNodes int
	// Log, when set, receives every applied event in application order.
	// The server serializes Append calls and Closes the log on Close. If the
	// log also implements RotatingLog (trace.FileLog does), the server
	// rotates to a fresh segment after every checkpoint and compacts the
	// segments the checkpoint covers.
	Log EventLog
	// Checkpoints, when set, enables durability: every CheckpointEvery
	// applied ticks is a checkpoint opportunity, at which the server saves an
	// image if the graph has changed by its own size since the last one (see
	// checkpointSizeDivisor), and once more during the final drain; after
	// each image it rotates and compacts the event log behind it.
	Checkpoints checkpoint.Store
	// CheckpointEvery is the spacing, in applied ticks, of checkpoint
	// opportunities (default 32) — the grid on which the rule above is
	// evaluated, not the cadence of images.
	CheckpointEvery int
	// ArchiveLog makes compaction move covered log segments to the log
	// directory's archive/ subdirectory instead of deleting them, preserving
	// the from-genesis history that recovery verification replays.
	ArchiveLog bool
	// EngineName ("core" or "dist") and Seed are stamped into checkpoint
	// envelopes so a store can't be resumed against a differently-configured
	// daemon. GenesisDigest (see the GenesisDigest function) additionally pins
	// the initial topology, so restarting under different workload flags fails
	// recovery instead of silently serving a mismatched genesis.
	EngineName    string
	Seed          int64
	GenesisDigest string
	// Resume seeds the tick/event watermarks after recovery, so checkpoint
	// and log-segment anchors continue the run's global numbering. Only the
	// watermarks resume; per-kind counters restart at zero for this
	// process's serving window.
	Resume Resume
	// Recorder, when set, traces every wound repair as a span: the server
	// stamps the tick, the engine stamps the phases. It is handed to the
	// engine at New. nil disables per-wound tracing at zero cost.
	Recorder *obs.Recorder
	// Parallelism is ignored: every batch is applied serially.
	//
	// Deprecated: kept only because the frozen benchmark/traced.go sets it;
	// ROADMAP item 4(i) removes that use, and this field with it.
	Parallelism int
	// RefreshEvery is the cadence, in applied ticks, at which the refresher
	// goroutine re-establishes the expensive cached metrics: connectivity
	// (when stale), warm-started λ₂, and dirty sampled-stretch trees
	// (default 32).
	RefreshEvery int
	// StretchSources sizes the sampled-stretch BFS source reservoir
	// (default 4).
	StretchSources int
	// AuditEvery, when > 0, recomputes every tracker-maintained metric from
	// the graph each AuditEvery applied ticks and cross-checks the tracker —
	// the incremental layer's correctness oracle, priced for test and canary
	// deployments. 0 disables auditing.
	AuditEvery int
}

// ParallelBatcher names core.State's former parallel entry point, now
// ApplyBatch under another name. The server does not call it.
//
// Deprecated: kept only because the frozen benchmark/traced.go embeds it;
// ROADMAP item 4(i) removes that use, and this type with it.
type ParallelBatcher interface {
	ApplyBatchParallel(b core.Batch, workers int) error
}

// EventLog is the append-only sink for applied events. *trace.LogWriter and
// *trace.FileLog both satisfy it.
type EventLog interface {
	Append(adversary.Event) error
	Close() error
}

// RotatingLog is the optional segmented-log surface: Rotate seals the current
// segment and starts a fresh one anchored at the given tick; Compact drops
// (or archives) segments fully covered by a checkpoint at beforeEvents.
// *trace.FileLog satisfies it.
type RotatingLog interface {
	Rotate(tick uint64, checkpoint string) error
	Compact(beforeEvents uint64, archive bool) error
}

// SyncingLog is the optional stable-storage surface: Sync flushes everything
// appended so far to disk. When the configured log implements it (both
// *trace.LogWriter over an *os.File and *trace.FileLog do), the server syncs
// once per applied batch before acknowledging its members, upgrading the
// log-before-ack guarantee from process-crash durability to power-loss
// durability at the cost of one fsync per tick.
type SyncingLog interface {
	Sync() error
}

// Snapshotter is the Engine facet durability uses: the complete engine state
// as deterministic bytes (binary; see internal/core/snapshot.go).
type Snapshotter interface {
	SnapshotState() ([]byte, error)
}

// Resume carries what a recovered daemon restarts from: the run-global
// watermarks, and how far the recovered state is ahead of the newest image.
type Resume struct {
	Tick   uint64
	Events uint64
	// Changes seeds the checkpoint rule's counter: Recovered.Changes, the
	// structural change recovery replayed on top of the image it loaded. A
	// crash loses the counter, not what it counted — the next incarnation
	// replays the same tail — so seeding it keeps the rule a function of the
	// event stream and the store's contents alone.
	Changes uint64
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 1024
}

func (c Config) maxBatch() int {
	if c.MaxBatch > 0 {
		return c.MaxBatch
	}
	return 256
}

func (c Config) maxDefer() int {
	if c.MaxDefer > 0 {
		return c.MaxDefer
	}
	return 4
}

func (c Config) minNodes() int {
	if c.MinNodes > 0 {
		return c.MinNodes
	}
	return 2
}

func (c Config) checkpointEvery() uint64 {
	if c.CheckpointEvery > 0 {
		return uint64(c.CheckpointEvery)
	}
	return 32
}

// checkpointSizeDivisor is the checkpoint rule: at an opportunity an image is
// written once the structural change applied since the last image — the sum
// of deltaSize over those ticks — has reached the structure's own size,
// nodes + edges of the healed graph, divided by this. Theorem 5 makes a
// repair, and so the replay of one logged event, cost what its wound costs,
// while an image costs n + m to write and to load: the bytes written per
// change and the replay tail per image byte are then both O(1) at every n,
// and a restart never replays more change than the image it loaded holds
// (plus one opportunity's spacing). A larger divisor shortens the tail and
// writes proportionally more.
const checkpointSizeDivisor = 1

// deltaSize is the structural change of one tick as the checkpoint rule
// counts it.
func deltaSize(d core.TickDelta) uint64 {
	return uint64(len(d.NodesAdded) + len(d.NodesRemoved) +
		len(d.EdgesAdded) + len(d.EdgesRemoved) + len(d.BaselineEdges))
}

// structureSize is what the accumulated change is measured against: the
// healed graph's nodes + edges (the tracker's Nodes + Edges, read from the
// engine because its owner is the caller).
func structureSize(eng Engine) uint64 {
	g := eng.Graph()
	return uint64(g.NumNodes() + g.NumEdges())
}

func (c Config) refreshEvery() uint64 {
	if c.RefreshEvery > 0 {
		return uint64(c.RefreshEvery)
	}
	return 32
}

func (c Config) stretchSources() int {
	if c.StretchSources > 0 {
		return c.StretchSources
	}
	return 4
}

// stretchMaxAge bounds how many ticks a cached stretch tree may serve
// without a rebuild even when no delta touched it.
func (c Config) stretchMaxAge() uint64 { return 8 * c.refreshEvery() }

// Counters are the serving-work counters, readable via Counters or the
// /metrics endpoint while the daemon runs.
type Counters struct {
	// Ticks is the number of applied timesteps (empty ticks don't count).
	Ticks uint64
	// EventsApplied = InsertsApplied + DeletesApplied.
	EventsApplied  uint64
	InsertsApplied uint64
	DeletesApplied uint64
	// EventsRejected counts events refused with an error (invalid target,
	// defer cap, engine rejection); EventsBacklogged counts ErrBacklog
	// refusals at the queue; EventsDeferred counts tick-to-tick deferrals
	// (one event deferred twice counts twice); EventsNotDurable counts
	// submissions failed with ErrNotDurable after an event-log write failure.
	EventsRejected   uint64
	EventsBacklogged uint64
	EventsDeferred   uint64
	EventsNotDurable uint64
	// BatchLast and BatchMax track applied batch sizes in events.
	BatchLast int
	BatchMax  int
	// ApplySeconds is cumulative engine time inside ApplyBatch;
	// WaitSeconds is cumulative submit→applied latency across all applied
	// events. Divide by Ticks / EventsApplied for means.
	ApplySeconds float64
	WaitSeconds  float64
	// Checkpoints counts checkpoints saved by this process;
	// CheckpointErrors counts snapshot/save/rotate failures. The Last*
	// watermarks name the newest saved checkpoint.
	Checkpoints          uint64
	CheckpointErrors     uint64
	LastCheckpointTick   uint64
	LastCheckpointEvents uint64
}

// Server is the maintenance daemon. Create with New, drive with Submit (or
// the HTTP handler), stop with Close.
type Server struct {
	cfg Config
	eng Engine

	intake *intake
	carry  []*submission
	stopc  chan struct{}
	done   chan struct{}
	// crashed makes the loop exit at stopc without draining; written only
	// before stopc closes (see crash).
	crashed bool

	closeMu sync.RWMutex
	closed  bool

	mu           sync.Mutex // guards eng, counters, cfg.Log
	counters     Counters
	logErr       error
	liveAuditErr error
	// changes is the structural change applied since the newest image (see
	// checkpointSizeDivisor); replies are the tick's verdicts, held back
	// until the tick's counters are published.
	changes uint64
	replies []reply

	// pub is the loop's state as readers see it; see published.
	pub atomic.Pointer[published]

	// live is the incremental metrics layer (tracker + λ₂ cache + stretch
	// sampler) every health poll and topology gauge reads.
	live *liveState

	// adm is the reusable incremental batch admission, reset each tick so
	// its buckets amortize to zero allocations.
	adm *core.BatchAdmission

	// degraded mirrors logErr != nil for lock-free Submit fast-fail: once the
	// event log has failed, writes are refused (ErrNotDurable) instead of
	// being applied and acknowledged non-durably. failLog sets both.
	degraded atomic.Bool

	// backlogged and notDurable count refusals made outside the loop (and,
	// for notDurable, inside it too); readers fold them into Counters.
	backlogged atomic.Uint64
	notDurable atomic.Uint64
	carried    atomic.Int64 // mirrors len(carry) for QueueDepth readers
	start      time.Time

	// Unified metrics (see metrics.go). The loop goroutine observes the
	// first three inside apply and the refresher observes its lock hold;
	// the registry renders them on scrape.
	reg             *obs.Registry
	tickHist        *obs.Histogram
	batchHist       *obs.Histogram
	queueHist       *obs.Histogram
	refreshLockHist *obs.Histogram
}

type submission struct {
	ev     adversary.Event
	done   chan error
	at     time.Time
	defers int
}

// reply is one verdict of the tick in progress.
type reply struct {
	sub *submission
	err error
}

// published is the loop's state as everyone else sees it: an immutable copy
// the loop swaps in before the first ack of every tick, after a checkpoint,
// and when the event log fails. Health, Counters, liveAuditError and every
// /metrics closure read it and never take s.mu, so a poll never queues
// behind a tick, a checkpoint or the refresher's graph copy. What a reader
// sees may lag the loop by the tick in progress, never by an acknowledged
// one: a client holding an ack reads counters that include it.
type published struct {
	counters     Counters
	logErr       error
	liveAuditErr error
	// changes is Server.changes; due is the size it has to reach for the
	// next opportunity to take an image.
	changes, due uint64
}

// publish swaps in a fresh copy of the loop's state. Caller holds s.mu (or
// is New, before the loop starts).
func (s *Server) publish() {
	s.pub.Store(&published{
		counters:     s.counters,
		logErr:       s.logErr,
		liveAuditErr: s.liveAuditErr,
		changes:      s.changes,
		due:          s.imageDueAt(),
	})
}

// imageDueAt is the accumulated change at which a checkpoint opportunity
// takes an image. Caller owns the engine.
func (s *Server) imageDueAt() uint64 { return structureSize(s.eng) / checkpointSizeDivisor }

// New starts the daemon over eng. The engine must not be touched by anyone
// else until Close returns (the server owns it, including reads).
func New(eng Engine, cfg Config) *Server {
	s := &Server{
		cfg:    cfg,
		eng:    eng,
		intake: newIntake(cfg.queueDepth()),
		stopc:  make(chan struct{}),
		done:   make(chan struct{}),
		start:  time.Now(),
		adm:    eng.BeginAdmission(),
	}
	// A recovered daemon continues the run's global numbering so checkpoint
	// and log-segment anchors stay monotone across restarts.
	s.counters.Ticks = cfg.Resume.Tick
	s.counters.EventsApplied = cfg.Resume.Events
	s.changes = cfg.Resume.Changes
	if cfg.Resume == (Resume{}) {
		// A run that starts from nothing has no image, and everything it
		// holds is ahead of that: the counter starts at the structure's own
		// size, so the first opportunity takes the first image (whatever the
		// structure has grown by since was counted as change).
		s.changes = structureSize(eng)
	}
	if cfg.Recorder != nil {
		eng.SetRecorder(cfg.Recorder)
	}
	s.live = s.newLiveState()
	s.buildRegistry()
	s.publish()
	go s.loop()
	go s.refresher()
	// Seed the caches (connectivity is already exact; λ₂ and stretch become
	// valid once this first refresh lands).
	s.live.requestRefresh()
	return s
}

// Submit enqueues one event and blocks until it is applied (nil), rejected
// (an error explaining why), refused by backpressure (ErrBacklog), or ctx
// ends. A context cancellation does not retract the event — it may still be
// applied after Submit returns.
func (s *Server) Submit(ctx context.Context, ev adversary.Event) error {
	sub, err := s.submitAsync(ev)
	if err != nil {
		return err
	}
	select {
	case err := <-sub.done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// submitAsync enqueues one event without waiting for its verdict.
func (s *Server) submitAsync(ev adversary.Event) (*submission, error) {
	sub := &submission{ev: ev, done: make(chan error, 1), at: time.Now()}
	one := [1]*submission{sub}
	accepted, err := s.submitMany(one[:])
	if err != nil {
		return nil, err
	}
	if accepted == 0 {
		return nil, ErrBacklog
	}
	return sub, nil
}

// submitMany enqueues a group of already-assembled submissions as one intake
// operation — one lock for the whole group, which both keeps the group
// contiguous and in order (the HTTP array contract: inserts admit before the
// events that attach to them) and makes ingest cost O(1) synchronization per
// request instead of per event.
// Returns how many submissions were accepted (always a prefix); the caller
// fails the rest with ErrBacklog.
func (s *Server) submitMany(subs []*submission) (int, error) {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.degraded.Load() {
		s.notDurable.Add(uint64(len(subs)))
		return 0, fmt.Errorf("%w: %v", ErrNotDurable, s.pub.Load().logErr)
	}
	accepted := s.intake.enqueue(subs)
	if rest := len(subs) - accepted; rest > 0 {
		s.backlogged.Add(uint64(rest))
	}
	return accepted, nil
}

// loop is the single goroutine that owns batching: it waits for work,
// gathers one tick's worth of submissions, and applies them as one batch.
func (s *Server) loop() {
	defer close(s.done)
	for {
		if len(s.carry) == 0 && s.intake.len() == 0 {
			select {
			case <-s.stopc:
				s.drain()
				return
			case <-s.intake.notify:
			}
		} else {
			select {
			case <-s.stopc:
				s.drain()
				return
			default:
			}
		}
		s.apply(s.gather(s.cfg.Tick))
	}
}

// gather collects one batch's worth of submissions in arrival order:
// deferred carry first (it keeps its head-of-line position), then whatever
// the intake holds, then — for up to window, while the batch has room —
// whatever else arrives. Anything beyond the batch cap carries into the next
// gather; the intake's one-shot notify token may already be consumed, and
// the loop's carry/intake length check keeps it from blocking while work
// remains. carry is owned by the loop goroutine (gather and apply both run
// on it); the atomic carried mirror is what concurrent QueueDepth readers
// see.
func (s *Server) gather(window time.Duration) []*submission {
	pending := s.intake.drainInto(s.carry)
	s.carry = nil
	s.carried.Store(0)
	max := s.cfg.maxBatch()
	if window > 0 {
		deadline := time.NewTimer(window)
		defer deadline.Stop()
	collect:
		for len(pending) < max {
			select {
			case <-s.intake.notify:
				pending = s.intake.drainInto(pending)
			case <-deadline.C:
				break collect
			case <-s.stopc:
				break collect
			}
		}
	}
	if len(pending) > max {
		s.carry = append(s.carry, pending[max:]...)
		s.carried.Store(int64(len(s.carry)))
		pending = pending[:max]
	}
	return pending
}

// drain finishes everything already accepted into the queue after Close:
// Submit can no longer enqueue (closed is set before stopc closes), so the
// queue only shrinks. Every remaining submission is applied or answered,
// then the final checkpoint is taken and the log closed. A crashed server
// (see crash) skips all of it.
func (s *Server) drain() {
	if s.crashed {
		return
	}
	for pending := s.gather(0); len(pending) > 0; pending = s.gather(0) {
		s.apply(pending)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publish()
	// Final checkpoint, whatever the rule says: a clean shutdown restarts
	// from here with an empty log tail.
	s.checkpointLocked()
	if s.cfg.Log != nil {
		// A failed final close means the log tail may not have reached
		// stable storage: surface it (Close returns logErr, cmd/xheal-serve
		// exits non-zero) and mark the daemon degraded so health probes see
		// it too.
		if err := s.cfg.Log.Close(); err != nil {
			s.failLog(fmt.Errorf("event log close: %w", err))
		}
	}
}

// batchState tracks one tick's in-assembly batch for conflict admission.
type batchState struct {
	batch   core.Batch
	members []*submission
}

// admit decides whether sub's event can join this tick's batch. The rule is
// core.ValidateBatch's, evaluated incrementally by the engine's own
// BatchAdmission (O(event) per decision, identical verdicts), so the server
// cannot drift from the engines' admission semantics and an admitted batch
// cannot be rejected at apply time. An ErrBatchConflict verdict means the
// event only clashes with *this* timestep (delete of a node inserted or
// attached this tick, duplicate target, ...) and defers; any other
// validation error is a property of the event itself and rejects it.
// Returns (accepted, rejection): deferred events return (false, nil).
func (s *Server) admit(bs *batchState, sub *submission) (bool, error) {
	ev := sub.ev
	switch ev.Kind {
	case adversary.Insert:
		// Serving policy on top of the shared rule: an unattached insertion
		// would disconnect the healed graph, so the daemon refuses it.
		if len(ev.Neighbors) == 0 {
			return false, fmt.Errorf("insert %d: no neighbors: %w", ev.Node, core.ErrBadNeighbor)
		}
	case adversary.Delete:
		// Serving policy: keep a non-trivial graph alive.
		alive := s.eng.Graph().NumNodes() + len(bs.batch.Insertions) - len(bs.batch.Deletions)
		if alive-1 < s.cfg.minNodes() {
			return false, fmt.Errorf("delete %d: %w", ev.Node, ErrTooFewNodes)
		}
	default:
		return false, fmt.Errorf("unknown event kind %d", int(ev.Kind))
	}

	// The shared rule itself.
	var err error
	if ev.Kind == adversary.Insert {
		err = s.adm.AdmitInsertion(core.BatchInsertion{Node: ev.Node, Neighbors: ev.Neighbors})
	} else {
		err = s.adm.AdmitDeletion(ev.Node)
	}
	if err != nil {
		if errors.Is(err, core.ErrBatchConflict) {
			return false, nil
		}
		return false, err
	}
	if ev.Kind == adversary.Insert {
		bs.batch.Insertions = append(bs.batch.Insertions, core.BatchInsertion{
			Node: ev.Node, Neighbors: ev.Neighbors,
		})
	} else {
		bs.batch.Deletions = append(bs.batch.Deletions, ev.Node)
	}
	return true, nil
}

// apply runs one tick under s.mu: the tick itself, then — in this order —
// the publication of its counters, its verdicts, and the checkpoint when the
// tick is an opportunity and an image is due. Publish-before-ack is what
// lets Health and Counters stay off the lock: whoever holds a verdict reads
// counters that already include it.
func (s *Server) apply(pending []*submission) {
	if len(pending) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	opportunity := s.tick(pending)
	s.publish()
	for i, r := range s.replies {
		r.sub.done <- r.err
		s.replies[i] = reply{}
	}
	s.replies = s.replies[:0]

	if opportunity && s.changes >= s.imageDueAt() {
		s.checkpointLocked()
		s.publish()
	}
}

// answer records sub's verdict; apply delivers it once the tick's counters
// are published.
func (s *Server) answer(sub *submission, err error) {
	s.replies = append(s.replies, reply{sub, err})
}

// tick admits pending submissions in arrival order, applies the resulting
// batch and logs it, recording a verdict for every submission it does not
// carry over. It reports whether the tick is a checkpoint opportunity: a
// batch was applied, there is a store, and the tick count landed on the
// grid. Caller holds s.mu.
func (s *Server) tick(pending []*submission) (opportunity bool) {
	// A failed event log means nothing further can be made durable: refuse
	// the whole tick instead of applying and acknowledging events that would
	// vanish on the next crash. (Submissions racing the failure can still
	// reach here after the degraded fast-fail in submitAsync.)
	if s.logErr != nil && s.cfg.Log != nil {
		s.failNotDurable(pending)
		return false
	}

	bs := &batchState{}
	s.adm.Reset()
	for _, sub := range pending {
		ok, rejection := s.admit(bs, sub)
		switch {
		case ok:
			bs.members = append(bs.members, sub)
		case rejection != nil:
			s.counters.EventsRejected++
			s.answer(sub, rejection)
		default:
			sub.defers++
			if sub.defers > s.cfg.maxDefer() {
				s.counters.EventsRejected++
				s.answer(sub, fmt.Errorf("%s %d after %d deferrals: %w",
					sub.ev.Kind, sub.ev.Node, sub.defers-1, ErrTooManyConflicts))
				continue
			}
			s.counters.EventsDeferred++
			s.carry = append(s.carry, sub)
			s.carried.Store(int64(len(s.carry)))
		}
	}
	if len(bs.members) == 0 {
		return false
	}

	// Spans emitted during this batch carry the tick they will be counted
	// under once the batch lands.
	s.cfg.Recorder.SetTick(s.counters.Ticks + 1)
	applyStart := time.Now()
	delta, err := s.eng.ApplyBatchDelta(bs.batch, 1)
	applied := time.Since(applyStart)
	if err != nil {
		// Admission should have prevented this; fail the whole timestep
		// (ApplyBatch rejects wholesale) and tell every member why.
		for _, sub := range bs.members {
			s.counters.EventsRejected++
			s.answer(sub, fmt.Errorf("batch rejected: %w", err))
		}
		return false
	}

	// Log-before-ack: the batch becomes durable (appended and, when the log
	// supports it, fsynced) before any member unblocks. On failure the
	// members are failed, not acked — they were applied in memory but are not
	// durable, and acknowledging them would break the contract that recovery
	// (and trace.Load's torn-tail tolerance) relies on.
	if s.cfg.Log != nil {
		if err := s.logBatch(bs.batch); err != nil {
			s.failLog(err)
			s.failNotDurable(bs.members)
			return false
		}
	}

	s.live.tracker.Apply(delta)
	s.live.stretch.Observe(delta)
	s.changes += deltaSize(delta)
	s.counters.Ticks++
	if s.cfg.AuditEvery > 0 && s.counters.Ticks%uint64(s.cfg.AuditEvery) == 0 {
		s.auditLive()
	}
	if s.counters.Ticks%s.cfg.refreshEvery() == 0 {
		s.live.requestRefresh()
	}
	s.counters.ApplySeconds += applied.Seconds()
	s.tickHist.Observe(applied.Seconds())
	s.batchHist.Observe(float64(len(bs.members)))
	s.queueHist.Observe(float64(s.QueueDepth()))
	s.counters.BatchLast = len(bs.members)
	if len(bs.members) > s.counters.BatchMax {
		s.counters.BatchMax = len(bs.members)
	}
	now := time.Now()
	for _, sub := range bs.members {
		s.counters.EventsApplied++
		if sub.ev.Kind == adversary.Insert {
			s.counters.InsertsApplied++
		} else {
			s.counters.DeletesApplied++
		}
		s.counters.WaitSeconds += now.Sub(sub.at).Seconds()
		s.answer(sub, nil)
	}
	return s.cfg.Checkpoints != nil && s.counters.Ticks%s.cfg.checkpointEvery() == 0
}

// logBatch makes one applied batch durable: every event is appended to the
// event log in exact application order (all insertions, then all deletions),
// then the log is synced to stable storage when it supports that — one fsync
// per tick, amortized over the whole batch.
func (s *Server) logBatch(b core.Batch) error {
	for _, ins := range b.Insertions {
		ev := adversary.Event{Kind: adversary.Insert, Node: ins.Node, Neighbors: ins.Neighbors}
		if err := s.cfg.Log.Append(ev); err != nil {
			return err
		}
	}
	for _, d := range b.Deletions {
		if err := s.cfg.Log.Append(adversary.Event{Kind: adversary.Delete, Node: d}); err != nil {
			return err
		}
	}
	if sl, ok := s.cfg.Log.(SyncingLog); ok {
		return sl.Sync()
	}
	return nil
}

// failLog records an event-log failure (the first one sticks) and flips the
// daemon into the refuse-writes degraded state — after publishing the
// failure, so whoever sees degraded finds the reason. Caller holds s.mu.
func (s *Server) failLog(err error) {
	if s.logErr == nil {
		s.logErr = err
	}
	s.publish()
	s.degraded.Store(true)
}

// failNotDurable records an ErrNotDurable verdict (wrapping the recorded log
// failure) for every submission. Caller holds s.mu with s.logErr set.
func (s *Server) failNotDurable(subs []*submission) {
	s.notDurable.Add(uint64(len(subs)))
	for _, sub := range subs {
		s.answer(sub, fmt.Errorf("%w: %v", ErrNotDurable, s.logErr))
	}
}

// Counters returns a snapshot of the serving-work counters: the loop's, as
// of the last tick it published, plus the refusals counted outside it.
func (s *Server) Counters() Counters { return s.countersOf(s.pub.Load()) }

func (s *Server) countersOf(p *published) Counters {
	c := p.counters
	c.EventsBacklogged = s.backlogged.Load()
	c.EventsNotDurable = s.notDurable.Load()
	return c
}

// QueueDepth reports events accepted but not yet applied (buffered in the
// intake plus carried deferrals). Approximate while the loop is moving.
func (s *Server) QueueDepth() int { return s.intake.len() + int(s.carried.Load()) }

// Health is one live health snapshot.
type Health struct {
	// Status is "ok", or "degraded" when the healed graph is disconnected or
	// the event log has failed (see LogError).
	Status string `json:"status"`
	// LogError, when set, is the event-log write failure that put the daemon
	// into the refuse-writes degraded state (every Submit fails with
	// ErrNotDurable until restart).
	LogError string `json:"log_error,omitempty"`
	// Engine-level facts.
	Nodes     int  `json:"nodes"`
	Edges     int  `json:"edges"`
	Connected bool `json:"connected"`
	Kappa     int  `json:"kappa"`
	// Snapshot is the MeasureFast-style measurement (no spectral work,
	// sampled stretch) of the healed graph against G′.
	Snapshot metrics.Snapshot `json:"snapshot"`
	// Serving state.
	Counters      Counters `json:"counters"`
	QueueDepth    int      `json:"queue_depth"`
	UptimeSeconds float64  `json:"uptime_seconds"`
	// Obs summarizes the serving histograms and, when per-wound tracing is
	// on, the repair spans.
	Obs ObsHealth `json:"obs"`
	// Durability reports checkpoint progress; absent when no checkpoint
	// store is configured.
	Durability *DurabilityHealth `json:"durability,omitempty"`
	// Live reports the incremental metrics layer — cached λ₂ and stretch
	// estimates with their staleness, connectivity age, and tracker audit
	// telemetry. Always set by Health.
	Live *LiveHealth `json:"live,omitempty"`
}

// DurabilityHealth is the durability slice of a health snapshot.
type DurabilityHealth struct {
	// Checkpoints / CheckpointErrors count saves and failures by this
	// process; the Last* watermarks name the newest saved checkpoint.
	Checkpoints          uint64 `json:"checkpoints"`
	CheckpointErrors     uint64 `json:"checkpoint_errors"`
	LastCheckpointTick   uint64 `json:"last_checkpoint_tick"`
	LastCheckpointEvents uint64 `json:"last_checkpoint_events"`
	// Resumed is true when this process recovered prior state at startup.
	Resumed bool `json:"resumed"`
	// ResumeTick / ResumeEvents are the watermarks serving resumed from.
	ResumeTick   uint64 `json:"resume_tick,omitempty"`
	ResumeEvents uint64 `json:"resume_events,omitempty"`
	// ChangesSinceCheckpoint is the structural change (nodes and edges
	// added or removed) applied since the newest image — what a restart
	// would replay on top of it; the whole structure while there is no image
	// yet. CheckpointDueAtChanges is the size it must reach for the next
	// checkpoint opportunity to take an image: nodes + edges of the healed
	// graph.
	ChangesSinceCheckpoint uint64 `json:"changes_since_checkpoint"`
	CheckpointDueAtChanges uint64 `json:"checkpoint_due_at_changes"`
}

// ObsHealth is the observability slice of a health snapshot: latency
// percentiles from the streaming histograms plus the span ledger.
type ObsHealth struct {
	// TickLatency summarizes engine time per applied batch.
	TickLatency obs.LatencySummary `json:"tick_latency"`
	// RepairLatency summarizes per-wound repair spans (admitted → settled).
	// Absent when no recorder is attached.
	RepairLatency *obs.LatencySummary `json:"repair_latency,omitempty"`
	// Spans / SpansDropped count spans emitted to the span log and spans
	// lost to write failures. Zero when no recorder is attached.
	Spans        uint64 `json:"spans"`
	SpansDropped uint64 `json:"spans_dropped"`
}

// Health snapshots the daemon's health. The engine facts come from the
// incremental tracker and the λ₂/stretch caches, the counters from the
// loop's published copy — no graph clone, no traversal, no measurement under
// or behind the apply lock, and the lock itself is never taken. The counters
// may lag the loop by the tick in progress (never by an acknowledged one);
// the tracker is fed inside the tick, before the counters are published, so
// its facts are of the counters' tick or the one after.
func (s *Server) Health() Health {
	p := s.pub.Load()
	c := s.countersOf(p)

	h := s.liveHealth(c, p.logErr)
	h.UptimeSeconds = time.Since(s.start).Seconds()

	h.Obs = ObsHealth{TickLatency: s.tickHist.Snapshot().Summary()}
	if rec := s.cfg.Recorder; rec != nil {
		h.Obs.Spans, h.Obs.SpansDropped = rec.Spans(), rec.Dropped()
		if rh := rec.RepairHist(); rh != nil {
			sum := rh.Snapshot().Summary()
			h.Obs.RepairLatency = &sum
		}
	}

	if s.cfg.Checkpoints != nil {
		h.Durability = &DurabilityHealth{
			Checkpoints:          c.Checkpoints,
			CheckpointErrors:     c.CheckpointErrors,
			LastCheckpointTick:   c.LastCheckpointTick,
			LastCheckpointEvents: c.LastCheckpointEvents,
			Resumed:              s.cfg.Resume.Tick != 0 || s.cfg.Resume.Events != 0,
			ResumeTick:           s.cfg.Resume.Tick,
			ResumeEvents:         s.cfg.Resume.Events,

			ChangesSinceCheckpoint: p.changes,
			CheckpointDueAtChanges: p.due,
		}
	}
	return h
}

// Close stops intake, drains and applies everything already accepted,
// finishes the event log, and waits for the loop to exit. Idempotent. The
// returned error is the first event-log failure — a write failure during
// serving or a failed flush/close of the log during the final drain — so a
// shutdown whose tail may not have reached stable storage is visible to the
// caller (cmd/xheal-serve exits non-zero on it).
func (s *Server) Close() error {
	s.closeMu.Lock()
	already := s.closed
	s.closed = true
	s.closeMu.Unlock()
	if !already {
		close(s.stopc)
	}
	<-s.done
	<-s.live.refreshDone
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logErr
}

// crash is the test seam for a process kill: it stops intake and the loop
// where they stand — nothing queued is drained, no final checkpoint is
// taken, the event log is left open — and returns once the loop has exited,
// so no checkpoint, rotation or compaction is in flight afterwards. What the
// data directory then holds is what a SIGKILL would have left.
func (s *Server) crash() {
	s.closeMu.Lock()
	s.closed = true
	s.closeMu.Unlock()
	s.crashed = true
	close(s.stopc)
	<-s.done
	<-s.live.refreshDone
}
