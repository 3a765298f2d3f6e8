package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/checkpoint"
	"github.com/xheal/xheal/internal/core"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/obs"
	"github.com/xheal/xheal/internal/server"
	"github.com/xheal/xheal/internal/spectral"
	"github.com/xheal/xheal/internal/trace"
)

// The daemon's flag defaults (cmd/xheal-serve), which the traced pass must
// assemble its in-process stack with. Drift in the ones that shape ticks and
// checkpoints is caught by bench.count_mismatch.
const (
	daemonKappa           = 4
	daemonTick            = 2 * time.Millisecond
	daemonQueueDepth      = 1024
	daemonMaxBatch        = 256
	daemonCheckpointEvery = 32
	daemonRefreshEvery    = 32
	daemonStretchSources  = 4
	daemonKeepCheckpoints = 3
	// sampledBudget is the invariant budget the sampled probe is timed at.
	sampledBudget = 4096
)

// layer names one decorated boundary between the server and a layer below.
type layer uint8

const (
	lyApply layer = iota
	lySnapshot
	lySave
	lyRotate
	lyCompact
	lyAppend
	lyFsync
	lySpanlog
	numLayers
)

var layerNames = [numLayers]string{
	"core.apply", "core.snapshot", "checkpoint.save", "trace.rotate",
	"trace.compact", "trace.append", "trace.fsync", "obs.spanlog",
}

// span is one call across a layer boundary. tick identifies the POST that
// caused it (one POST is one tick); parent is the enclosing span, -1 if none.
type span struct {
	layer      layer
	tick       int32
	parent     int32
	start, end time.Duration // since the tracer's epoch
}

// measured reports whether a measured POST caused the span: not the warm-up
// (whose last checkpoint runs into the window) and not the final drain after
// the window closed.
func (s span) measured(closed time.Duration) bool {
	return s.tick > warmupPosts && s.start < closed
}

// tracer keeps spans in memory; nothing is written until the window is over.
// Inside the window every decorated call runs on the server's loop goroutine,
// so spans nest but never overlap; the lock only orders the post-window
// probes, which run elsewhere.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	open  []int32
	tick  int32
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) begin(l layer) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l == lyApply {
		t.tick++
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{layer: l, tick: t.tick, parent: parent, start: t.now()})
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = t.now()
	t.open = t.open[:len(t.open)-1]
}

// coreEngine is every surface the server type-asserts on its engine, so the
// wrapper below changes no code path the daemon takes with a bare core.State.
type coreEngine interface {
	server.Engine
	server.DeltaBatcher
	server.ParallelBatcher
	server.Admitter
	server.SampledChecker
	server.Snapshotter
	SetRecorder(*obs.Recorder)
}

// tracedEngine forwards everything and times the two calls that do work
// proportional to the batch (apply) or to n (snapshot).
type tracedEngine struct {
	coreEngine
	t        *tracer
	snapLast int
}

func (e *tracedEngine) ApplyBatchDelta(b core.Batch, workers int) (core.TickDelta, error) {
	defer e.t.end(e.t.begin(lyApply))
	return e.coreEngine.ApplyBatchDelta(b, workers)
}

func (e *tracedEngine) SnapshotState() ([]byte, error) {
	defer e.t.end(e.t.begin(lySnapshot))
	data, err := e.coreEngine.SnapshotState()
	e.snapLast = len(data)
	return data, err
}

// tracedLog times the event log. The embedded FileLog supplies Close.
type tracedLog struct {
	*trace.FileLog
	t *tracer
}

func (l *tracedLog) Append(ev adversary.Event) error {
	defer l.t.end(l.t.begin(lyAppend))
	return l.FileLog.Append(ev)
}

func (l *tracedLog) Sync() error {
	defer l.t.end(l.t.begin(lyFsync))
	return l.FileLog.Sync()
}

func (l *tracedLog) Rotate(tick uint64, ckpt string) error {
	defer l.t.end(l.t.begin(lyRotate))
	return l.FileLog.Rotate(tick, ckpt)
}

func (l *tracedLog) Compact(before uint64, archive bool) error {
	defer l.t.end(l.t.begin(lyCompact))
	return l.FileLog.Compact(before, archive)
}

// tracedStore times checkpoint saves and counts the state bytes handed over.
type tracedStore struct {
	checkpoint.Store
	t *tracer
	// stateBytes[i] is the snapshot size of the i-th save, in save order.
	stateBytes []int
}

func (s *tracedStore) Save(c *checkpoint.Checkpoint) error {
	defer s.t.end(s.t.begin(lySave))
	s.stateBytes = append(s.stateBytes, len(c.State))
	return s.Store.Save(c)
}

// timedWriter sits under the span writer's buffer: it sees the flushes.
type timedWriter struct {
	w     io.Writer
	t     *tracer
	bytes int64
}

func (w *timedWriter) Write(p []byte) (int, error) {
	defer w.t.end(w.t.begin(lySpanlog))
	n, err := w.w.Write(p)
	w.bytes += int64(n)
	return n, err
}

// layerStat is one layer's share of the window.
type layerStat struct {
	count int       // calls caused by a measured POST
	selfS float64   // time inside the window not covered by a child span
	durMS []float64 // whole durations of the counted calls
}

// layerStats attributes the window [open, closed] to the layers. A span's
// time counts as far as it overlaps the window — the checkpoint that the last
// warm-up tick triggers runs into it, and the first measured POST waits for
// it. A span is counted as a call only if a measured POST caused it.
func layerStats(spans []span, open, closed time.Duration) [numLayers]layerStat {
	var st [numLayers]layerStat
	clip := func(s span) time.Duration {
		return max(0, min(s.end, closed)-max(s.start, open))
	}
	for _, s := range spans {
		d := clip(s)
		st[s.layer].selfS += d.Seconds()
		if s.parent >= 0 {
			st[spans[s.parent].layer].selfS -= d.Seconds()
		}
		if s.measured(closed) {
			st[s.layer].count++
			st[s.layer].durMS = append(st[s.layer].durMS, ms(s.end-s.start))
		}
	}
	return st
}

// traced is what the traced in-process pass measured.
type traced struct {
	win    *window
	counts counts
	layers [numLayers]layerStat
	health server.Health
	spans  []span
	stalls []float64 // per checkpoint: snapshot+save+rotate+compact, ms

	newStateS, openS, loadS, recoverS       float64
	csrMS, sampledMS, fullMS                float64
	snapLastBytes                           int
	checkpointBytes, spanlogBytes, logBytes int64
}

// runTraced assembles the daemon's durable stack in-process exactly as
// cmd/xheal-serve's buildDaemon does, with timing decorators between the
// server and each layer, and drives the same schedule over loopback HTTP.
func runTraced(sp spec, seed int64, s *schedule, g0 *graph.Graph, dir string) (*traced, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	dataDir := filepath.Join(dir, "data")
	logDir := filepath.Join(dataDir, "log")
	tr := &traced{}

	// First-boot probe: what a cold start pays to build engine state.
	t0 := time.Now()
	if _, err := core.NewState(core.Config{Kappa: daemonKappa, Seed: seed}, g0); err != nil {
		return nil, err
	}
	tr.newStateS = time.Since(t0).Seconds()

	store, err := checkpoint.NewFileStore(filepath.Join(dataDir, "checkpoints"), daemonKeepCheckpoints)
	if err != nil {
		return nil, err
	}
	rc := server.RecoverConfig{
		Store: store, LogDir: logDir,
		Engine: server.EngineCore, Kappa: daemonKappa, Seed: seed, Genesis: g0,
	}
	rec, err := server.Recover(rc)
	if err != nil {
		return nil, fmt.Errorf("recover (first boot): %w", err)
	}
	inner, ok := rec.Engine.(coreEngine)
	if !ok {
		return nil, fmt.Errorf("engine %T lacks a surface the server uses", rec.Engine)
	}
	t0 = time.Now()
	fl, err := trace.OpenFileLog(logDir, g0, rec.Tick, rec.Events, "")
	if err != nil {
		return nil, err
	}
	tr.openS = time.Since(t0).Seconds()
	spanFile, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		fl.Close()
		return nil, err
	}
	defer spanFile.Close()

	t := newTracer((len(s.bodies) + 1) * (sp.array + 8))
	eng := &tracedEngine{coreEngine: inner, t: t}
	tstore := &tracedStore{Store: store, t: t}
	spanOut := &timedWriter{w: spanFile, t: t}
	spanW := obs.NewSpanWriter(spanOut)
	srv := server.New(eng, server.Config{
		Tick:            daemonTick,
		QueueDepth:      daemonQueueDepth,
		MaxBatch:        daemonMaxBatch,
		Parallelism:     1,
		RefreshEvery:    daemonRefreshEvery,
		StretchSources:  daemonStretchSources,
		Log:             &tracedLog{FileLog: fl, t: t},
		Checkpoints:     tstore,
		CheckpointEvery: daemonCheckpointEvery,
		ArchiveLog:      true,
		EngineName:      server.EngineCore,
		Seed:            seed,
		GenesisDigest:   server.GenesisDigest(g0),
		Resume:          server.Resume{Tick: rec.Tick, Events: rec.Events},
		Recorder:        obs.NewRecorder(spanW, obs.MustHistogram(obs.LatencyBuckets())),
	})
	closed := false
	closeServer := func() error {
		if closed {
			return nil
		}
		closed = true
		return errors.Join(srv.Close(), spanW.Close())
	}
	defer closeServer()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = httpSrv.Serve(ln) // returns ErrServerClosed at Shutdown
	}()
	defer func() {
		_ = httpSrv.Shutdown(context.Background())
		<-served
	}()
	base := "http://" + ln.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), startTimeout)
	defer cancel()
	probe := newClient()
	defer probe.CloseIdleConnections()
	if _, err := awaitHealth(ctx, probe, base, warmed); err != nil {
		return nil, err
	}

	var open, shut time.Duration
	tr.win, err = drive(base, s, func() { open = t.now() }, func() { shut = t.now() })
	if err != nil {
		return nil, err
	}

	// The daemon is idle now (the last tick is not a checkpoint tick), so its
	// directory holds exactly what a SIGKILL here would leave behind.
	tr.health = srv.Health()
	if err := checkHealth(tr.health, s); err != nil {
		return nil, err
	}
	c := tr.health.Counters
	tr.counts = counts{ticks: c.Ticks, checkpoints: c.Checkpoints, events: c.EventsApplied}
	if tr.counts.diskBytes, err = dirBytes(dataDir); err != nil {
		return nil, err
	}
	if tr.logBytes, err = dirBytes(logDir); err != nil {
		return nil, err
	}
	t.mu.Lock()
	tr.spans = append([]span(nil), t.spans...)
	t.mu.Unlock()
	tr.layers = layerStats(tr.spans, open, shut)
	tr.stalls = checkpointStalls(tr.spans, shut)
	for _, n := range tstore.stateBytes[1:] { // the first save is the warm-up's
		tr.checkpointBytes += int64(n)
	}
	tr.snapLastBytes = eng.snapLast
	tr.spanlogBytes = spanOut.bytes

	// Crash-recovery probe on that directory: newest checkpoint plus the
	// 16-tick log tail, then recovery identity against a from-genesis replay.
	probeStore, err := checkpoint.NewFileStore(filepath.Join(dataDir, "checkpoints"), daemonKeepCheckpoints)
	if err != nil {
		return nil, err
	}
	timedLoad := &loadTimer{Store: probeStore}
	rc.Store = timedLoad
	t0 = time.Now()
	rec2, err := server.Recover(rc)
	if err != nil {
		return nil, fmt.Errorf("recover (crash image): %w", err)
	}
	tr.recoverS = time.Since(t0).Seconds()
	tr.loadS = timedLoad.seconds
	tr.counts.replayed = rec2.Replayed
	if !rec2.FromCheckpoint || rec2.Events != tr.counts.events {
		return nil, fmt.Errorf("ack ⇒ durable violated: %d events acknowledged, recovery found %d (from checkpoint: %v)",
			tr.counts.events, rec2.Events, rec2.FromCheckpoint)
	}
	if err := server.VerifyRecovery(rec2.Engine, server.EngineCore, logDir, daemonKappa, seed); err != nil {
		return nil, fmt.Errorf("recovery identity: %w", err)
	}

	// Probes on the final state, each the first call after a mutation: the
	// O(n) calls that run under the apply lock while the daemon serves.
	if err := closeServer(); err != nil {
		return nil, err
	}
	mutations := 0
	mutate := func() error {
		mutations++
		return inner.ApplyBatch(core.Batch{Insertions: []core.BatchInsertion{{
			Node:      2*insertBase + graph.NodeID(mutations),
			Neighbors: []graph.NodeID{inner.Graph().Nodes()[0]},
		}}})
	}
	timeProbe := func(out *float64, f func() error) error {
		if err := mutate(); err != nil {
			return err
		}
		t0 := time.Now()
		err := f()
		*out = ms(time.Since(t0))
		return err
	}
	if err := timeProbe(&tr.csrMS, func() error { spectral.NewCSR(inner.Graph()); return nil }); err != nil {
		return nil, err
	}
	if err := timeProbe(&tr.sampledMS, func() error { return inner.CheckInvariantsSampled(sampledBudget) }); err != nil {
		return nil, fmt.Errorf("sampled invariants: %w", err)
	}
	if err := timeProbe(&tr.fullMS, inner.CheckInvariants); err != nil {
		return nil, fmt.Errorf("invariants on the final state: %w", err)
	}
	return tr, nil
}

// loadTimer times checkpoint.Store.Load inside server.Recover.
type loadTimer struct {
	checkpoint.Store
	seconds float64
}

func (l *loadTimer) Load() (*checkpoint.Checkpoint, error) {
	t0 := time.Now()
	defer func() { l.seconds += time.Since(t0).Seconds() }()
	return l.Store.Load()
}

// checkpointStalls returns, per checkpoint caused by a measured POST, the
// time the apply lock was held after the ack: snapshot + save + rotate +
// compact, in ms.
func checkpointStalls(spans []span, closed time.Duration) []float64 {
	byTick := map[int32]time.Duration{}
	var order []int32
	for _, s := range spans {
		switch s.layer {
		case lySnapshot, lySave, lyRotate, lyCompact:
			if !s.measured(closed) {
				continue
			}
			if _, seen := byTick[s.tick]; !seen {
				order = append(order, s.tick)
			}
			byTick[s.tick] += s.end - s.start
		}
	}
	out := make([]float64, len(order))
	for i, tick := range order {
		out[i] = ms(byTick[tick])
	}
	return out
}

// writeSpans dumps the traced pass's spans as JSONL for later reading.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i, s := range spans {
		rec := struct {
			ID      int     `json:"id"`
			Name    string  `json:"name"`
			Post    int32   `json:"post"`
			Parent  int32   `json:"parent"`
			StartUS float64 `json:"start_us"`
			EndUS   float64 `json:"end_us"`
		}{i, layerNames[s.layer], s.tick, s.parent, float64(s.start) / 1e3, float64(s.end) / 1e3}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
