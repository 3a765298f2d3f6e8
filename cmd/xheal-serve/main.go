// Command xheal-serve runs the Xheal network-maintenance daemon: a
// long-lived server that owns a self-healing network, ingests insert/delete
// events from many concurrent clients over HTTP, coalesces everything that
// arrives during a tick into one batched timestep, and serves live health
// snapshots plus Prometheus-style metrics. Every applied batch is appended
// to an internal/trace event log, so any serving run replays byte-for-byte
// through `xheal-sim -replay <log>`.
//
// Usage:
//
//	xheal-serve -addr :8080 -workload regular -n 128 -event-log run.log
//	xheal-serve -engine dist -workload er -n 64            # host the §5 engine
//	xheal-serve -data-dir /var/lib/xheal                   # durable: checkpoints + segmented log, crash recovery
//
// The binary serves and does nothing else. Its adversary — chaos scenarios,
// SLO gates, SIGKILL/restart drills — is cmd/xheal-drill, which runs this
// daemon as a child process and speaks to it only over HTTP; serving
// performance is measured by the repository benchmark (go run ./benchmark).
//
// Endpoints:
//
//	POST /v1/events  {"kind":"insert","node":9000,"neighbors":[0,1]} or an array
//	GET  /v1/health  health snapshot (MeasureFast + serving counters) as JSON
//	GET  /metrics    Prometheus text exposition
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"net/http/pprof"

	"github.com/xheal/xheal/internal/checkpoint"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/obs"
	"github.com/xheal/xheal/internal/server"
	"github.com/xheal/xheal/internal/trace"
	"github.com/xheal/xheal/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options collects the parsed flags.
type options struct {
	addr     string
	engine   string
	wl       string
	n        int
	kappa    int
	seed     int64
	tick     time.Duration
	queue    int
	maxBatch int
	eventLog string
	spanLog  string
	pprof    bool

	dataDir        string
	ckptEvery      int
	archiveLog     bool
	verifyRecovery bool

	refreshEvery int
	stretchSrcs  int
	auditEvery   int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xheal-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080", "HTTP listen address")
	fs.StringVar(&o.engine, "engine", "seq", "healing engine: seq (Algorithm 3.1 reference) or dist (§5 protocol)")
	fs.StringVar(&o.wl, "workload", "regular", "initial topology: "+fmt.Sprint(workload.Names()))
	fs.IntVar(&o.n, "n", 64, "initial node count")
	fs.IntVar(&o.kappa, "kappa", 4, "expander degree parameter (even)")
	fs.Int64Var(&o.seed, "seed", 1, "randomness seed (healing decisions; replay must reuse it)")
	fs.DurationVar(&o.tick, "tick", 2*time.Millisecond, "batch coalescing window (0 = apply immediately)")
	fs.IntVar(&o.queue, "queue", 1024, "ingest queue depth (backpressure bound)")
	fs.IntVar(&o.maxBatch, "max-batch", 256, "max events per batched timestep")
	fs.StringVar(&o.eventLog, "event-log", "", "append applied events to this trace log (replayable via xheal-sim -replay)")
	fs.StringVar(&o.spanLog, "spanlog", "", "write one JSONL span per repaired wound to this file (enables per-wound tracing)")
	fs.BoolVar(&o.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/ on the serving mux")
	fs.StringVar(&o.dataDir, "data-dir", "", "durable mode: recover state from and persist checkpoints + segmented event log under this directory")
	fs.IntVar(&o.ckptEvery, "checkpoint-every", 32, "durable mode: ticks between checkpoint opportunities (an image is written at one only once the graph has changed by its own size since the last)")
	fs.BoolVar(&o.archiveLog, "archive-log", false, "durable mode: move compacted log segments to <data-dir>/log/archive instead of deleting (keeps from-genesis history)")
	fs.BoolVar(&o.verifyRecovery, "verify-recovery", false, "durable mode: at startup, assert the recovered state is byte-identical to a from-genesis replay of the archived log")
	fs.IntVar(&o.refreshEvery, "refresh-every", 32, "applied ticks between refresh opportunities for cached connectivity/lambda2/stretch (one is taken only once the graph has changed by its own size since the last refresh)")
	fs.IntVar(&o.stretchSrcs, "stretch-sources", 4, "BFS source reservoir size for the sampled-stretch estimate")
	fs.IntVar(&o.auditEvery, "audit-every", 0, "cross-check the incremental metrics against a full recomputation every this many ticks (0 = off); a divergence degrades /v1/health")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	return serve(o, stdout, stderr)
}

// daemon is one assembled serving stack.
type daemon struct {
	srv     *server.Server
	g0      *graph.Graph
	rec     *obs.Recorder
	cleanup func()

	// Durable-mode facts (nil/empty otherwise): what startup recovery did,
	// and whether the recovery-identity check ran and passed.
	recovered *server.Recovered
	verified  bool
}

// engineName maps the -engine flag to the checkpoint/recovery engine name.
func engineName(engine string) (string, error) {
	switch engine {
	case "seq":
		return server.EngineCore, nil
	case "dist":
		return server.EngineDist, nil
	default:
		return "", fmt.Errorf("unknown engine %q (valid: seq dist)", engine)
	}
}

// handler assembles the HTTP surface: the serving API, plus the pprof
// endpoints when -pprof is set.
func (d *daemon) handler(o options) http.Handler {
	if !o.pprof {
		return d.srv.Handler()
	}
	mux := http.NewServeMux()
	mux.Handle("/", d.srv.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// buildDaemon constructs the initial topology, the chosen engine, the event
// log, and the server.
func buildDaemon(o options) (*daemon, error) {
	g0, err := workload.ByName(o.wl, o.n, rand.New(rand.NewSource(o.seed)))
	if err != nil {
		return nil, err
	}
	engName, err := engineName(o.engine)
	if err != nil {
		return nil, err
	}

	cfg := server.Config{
		Tick:           o.tick,
		QueueDepth:     o.queue,
		MaxBatch:       o.maxBatch,
		RefreshEvery:   o.refreshEvery,
		StretchSources: o.stretchSrcs,
		AuditEvery:     o.auditEvery,
	}
	var eng server.Engine
	var recovered *server.Recovered
	verified := false
	var logFile *os.File
	if o.dataDir != "" {
		// Durable mode: recover whatever a previous incarnation left behind
		// (newest checkpoint + log-tail replay), then serve with checkpoints
		// over a fresh checkpoint-anchored log segment.
		if o.eventLog != "" {
			return nil, fmt.Errorf("-event-log and -data-dir are mutually exclusive (the data dir owns a segmented log)")
		}
		store, err := checkpoint.NewFileStore(filepath.Join(o.dataDir, "checkpoints"), 3)
		if err != nil {
			return nil, err
		}
		logDir := filepath.Join(o.dataDir, "log")
		rec, err := server.Recover(server.RecoverConfig{
			Store: store, LogDir: logDir,
			Engine: engName, Kappa: o.kappa, Seed: o.seed, Genesis: g0,
		})
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		eng = rec.Engine
		recovered = rec
		fl, err := trace.OpenFileLog(logDir, g0, rec.Tick, rec.Events, "")
		if err != nil {
			return nil, err
		}
		if o.verifyRecovery {
			if err := server.VerifyRecovery(eng, engName, logDir, o.kappa, o.seed); err != nil {
				fl.Close()
				return nil, fmt.Errorf("verify recovery: %w", err)
			}
			verified = true
		}
		cfg.Log = fl
		cfg.Checkpoints = store
		cfg.CheckpointEvery = o.ckptEvery
		cfg.ArchiveLog = o.archiveLog
		cfg.EngineName = engName
		cfg.Seed = o.seed
		cfg.GenesisDigest = server.GenesisDigest(g0)
		cfg.Resume = server.Resume{Tick: rec.Tick, Events: rec.Events, Changes: rec.Changes}
	} else {
		eng, err = server.NewEngine(engName, o.kappa, o.seed, g0)
		if err != nil {
			return nil, err
		}
		if o.eventLog != "" {
			logFile, err = os.Create(o.eventLog)
			if err != nil {
				return nil, err
			}
			lw, err := trace.NewLogWriter(logFile, g0)
			if err != nil {
				logFile.Close()
				return nil, err
			}
			cfg.Log = lw
		}
	}
	var spanFile *os.File
	var spanW *obs.SpanWriter
	if o.spanLog != "" {
		spanFile, err = os.Create(o.spanLog)
		if err != nil {
			if logFile != nil {
				logFile.Close()
			}
			return nil, err
		}
		spanW = obs.NewSpanWriter(spanFile)
		cfg.Recorder = obs.NewRecorder(spanW, obs.MustHistogram(obs.LatencyBuckets()))
	}
	d := &daemon{
		srv:       server.New(eng, cfg),
		g0:        g0,
		rec:       cfg.Recorder,
		recovered: recovered,
		verified:  verified,
		cleanup: func() {
			if spanW != nil {
				_ = spanW.Close()
				spanFile.Close()
			}
			if logFile != nil {
				logFile.Close()
			}
		},
	}
	return d, nil
}

// serve listens until SIGINT/SIGTERM, then drains and exits.
func serve(o options, stdout, stderr io.Writer) int {
	d, err := buildDaemon(o)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer d.cleanup()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	httpSrv := &http.Server{
		Handler: d.handler(o),
		// Bound slow/stalled request reads so one bad client can't pin a
		// connection forever. No WriteTimeout: a Submit legitimately blocks
		// until its tick applies it, which -tick bounds on its own.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
	}
	fmt.Fprintf(stdout, "xheal-serve: engine=%s workload=%s n=%d m=%d kappa=%d seed=%d tick=%v\n",
		o.engine, o.wl, d.g0.NumNodes(), d.g0.NumEdges(), o.kappa, o.seed, o.tick)
	if rec := d.recovered; rec != nil {
		source := "genesis"
		if rec.FromCheckpoint {
			source = "checkpoint"
		}
		fmt.Fprintf(stdout, "recovered: source=%s events=%d tick=%d replayed=%d torn_tail=%v\n",
			source, rec.Events, rec.Tick, rec.Replayed, rec.TornTail)
		if d.verified {
			fmt.Fprintln(stdout, "recovery identity verified against from-genesis replay")
		}
		fmt.Fprintf(stdout, "data dir: %s (checkpoint opportunity every %d ticks, archive=%v)\n",
			o.dataDir, o.ckptEvery, o.archiveLog)
	}
	fmt.Fprintf(stdout, "listening on http://%s (POST /v1/events, GET /v1/health, GET /metrics)\n", ln.Addr())
	if o.eventLog != "" {
		fmt.Fprintf(stdout, "event log: %s (replay: xheal-sim -replay %s -kappa %d -seed %d)\n",
			o.eventLog, o.eventLog, o.kappa, o.seed)
	}
	if o.spanLog != "" {
		fmt.Fprintf(stdout, "span log: %s (one JSONL span per repaired wound)\n", o.spanLog)
	}
	if o.pprof {
		fmt.Fprintf(stdout, "pprof: http://%s/debug/pprof/\n", ln.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case <-ctx.Done():
		fmt.Fprintln(stdout, "shutting down: draining queue...")
	case err := <-errc:
		fmt.Fprintln(stderr, err)
		return 1
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(shutdownCtx)
	if err := d.srv.Close(); err != nil {
		fmt.Fprintf(stderr, "event log: %v\n", err)
		return 1
	}
	c := d.srv.Counters()
	fmt.Fprintf(stdout, "served %d events in %d ticks (%d rejected, %d deferred)\n",
		c.EventsApplied, c.Ticks, c.EventsRejected, c.EventsDeferred)
	if o.dataDir != "" {
		fmt.Fprintf(stdout, "checkpoints: %d saved, %d errors, final watermark tick=%d events=%d\n",
			c.Checkpoints, c.CheckpointErrors, c.LastCheckpointTick, c.LastCheckpointEvents)
	}
	if d.rec != nil {
		fmt.Fprintf(stdout, "spans: %d emitted, %d dropped (%s)\n",
			d.rec.Spans(), d.rec.Dropped(), o.spanLog)
	}
	return 0
}
