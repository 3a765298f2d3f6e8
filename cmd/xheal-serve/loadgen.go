package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/obs"
	"github.com/xheal/xheal/internal/server"
	"github.com/xheal/xheal/internal/trace"
)

// loadReport is the schema of -bench-out (see BENCH_PR6.json): the serving
// throughput record, the BENCH_*.json series' serve-side entry.
type loadReport struct {
	Engine          string  `json:"engine"`
	Workload        string  `json:"workload"`
	InitialNodes    int     `json:"initial_nodes"`
	Clients         int     `json:"clients"`
	EventsPerClient int     `json:"events_per_client"`
	EventsTotal     uint64  `json:"events_total"`
	WallMS          float64 `json:"wall_ms"`
	EventsPerSec    float64 `json:"events_per_sec"`
	Ticks           uint64  `json:"ticks"`
	MeanBatch       float64 `json:"mean_batch"`
	BatchMax        int     `json:"batch_max"`
	Deferred        uint64  `json:"deferred"`
	Rejected        uint64  `json:"rejected"`
	Backlogged      uint64  `json:"backlogged"`
	Retries         uint64  `json:"retries"`
	ApplyMSTotal    float64 `json:"apply_ms_total"`
	MeanWaitMS      float64 `json:"mean_wait_ms"`
	FinalNodes      int     `json:"final_nodes"`
	FinalEdges      int     `json:"final_edges"`
	ReplayIdentical bool    `json:"replay_identical"`
	// TickLatency and RepairLatency are streaming-histogram percentiles from
	// the daemon's /v1/health obs block; Spans counts per-wound trace spans.
	TickLatency   obs.LatencySummary  `json:"tick_latency"`
	RepairLatency *obs.LatencySummary `json:"repair_latency,omitempty"`
	Spans         uint64              `json:"spans"`
	SpansDropped  uint64              `json:"spans_dropped"`
	Env           obs.Env             `json:"env"`
}

// runLoad drives an in-process daemon through its real HTTP surface with
// seeded concurrent adversarial clients, then verifies the run: structural
// invariants, a healthy snapshot, queue drain on shutdown, and the event log
// replaying to the identical final graph. smoke mode is the same pipeline at
// fixed tiny scale with stricter, CI-friendly output.
func runLoad(o options, stdout, stderr io.Writer, smoke bool) int {
	if o.eventLog == "" {
		tmp, err := os.CreateTemp("", "xheal-serve-*.log")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		tmp.Close()
		o.eventLog = tmp.Name()
		defer os.Remove(o.eventLog)
	}
	// Per-wound tracing is always on under load: the span log is part of what
	// this mode verifies (span count == healed deletions == trace-log
	// deletions, ledger agreement, zero drops).
	if o.spanLog == "" {
		tmp, err := os.CreateTemp("", "xheal-serve-*.spans")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		tmp.Close()
		o.spanLog = tmp.Name()
		defer os.Remove(o.spanLog)
	}
	d, err := buildDaemon(o)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer d.cleanup()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	httpSrv := &http.Server{Handler: d.handler(o)}
	go func() { _ = httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	mode := "loadgen"
	if smoke {
		mode = "smoke"
	}
	fmt.Fprintf(stdout, "xheal-serve %s: engine=%s workload=%s n=%d kappa=%d seed=%d clients=%d events/client=%d tick=%v\n",
		mode, o.engine, o.wl, d.g0.NumNodes(), o.kappa, o.seed, o.clients, o.events, o.tick)

	anchors := append([]graph.NodeID(nil), d.g0.Nodes()...)
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        o.clients * 2,
		MaxIdleConnsPerHost: o.clients * 2,
	}}

	start := time.Now()
	var wg sync.WaitGroup
	var retries atomic.Uint64
	errs := make([]error, o.clients)
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stream := adversary.NewClientStream(c, anchors, o.deleteBias, o.attach, o.seed+1000)
			// A 503 verdict (queue backpressure) is the daemon telling the
			// client to come back, not a failure: retry with full-jitter
			// exponential backoff, bounded so a wedged daemon still fails
			// the run.
			bo := adversary.Backoff{
				Base: time.Millisecond,
				Max:  250 * time.Millisecond,
				Rng:  rand.New(rand.NewSource(o.seed + 2000 + int64(c))),
			}
			const maxAttempts = 8
			for i := 0; i < o.events; i++ {
				ev := stream.Next()
				var err error
				for attempt := 0; ; attempt++ {
					err = postEvent(client, base, ev)
					if err == nil || !errors.Is(err, errRetryable) || attempt == maxAttempts-1 {
						break
					}
					retries.Add(1)
					time.Sleep(bo.Delay(attempt))
				}
				if err != nil {
					errs[c] = fmt.Errorf("client %d event %d: %w", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	// Health over the wire while the daemon is still up.
	health, err := getHealth(client, base)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if health.Status != "ok" || !health.Connected {
		fmt.Fprintf(stderr, "unhealthy after load: %+v\n", health)
		return 1
	}

	_ = httpSrv.Close()
	if err := d.srv.Close(); err != nil {
		fmt.Fprintf(stderr, "event log: %v\n", err)
		return 1
	}
	if depth := d.srv.QueueDepth(); depth != 0 {
		fmt.Fprintf(stderr, "queue not drained on shutdown: %d\n", depth)
		return 1
	}
	if err := d.srv.CheckInvariants(); err != nil {
		fmt.Fprintf(stderr, "INVARIANT VIOLATION: %v\n", err)
		return 1
	}
	c := d.srv.Counters()
	want := uint64(o.clients) * uint64(o.events)
	if c.EventsApplied != want || c.EventsRejected != 0 {
		fmt.Fprintf(stderr, "applied %d/%d events, %d rejected\n", c.EventsApplied, want, c.EventsRejected)
		return 1
	}

	// The event log must replay to the identical final graph.
	final := d.srv.Graph()
	f, err := os.Open(o.eventLog)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	replayed, err := server.ReplayLog(f, o.kappa, o.seed)
	f.Close()
	if err != nil {
		fmt.Fprintf(stderr, "replay: %v\n", err)
		return 1
	}
	if !replayed.Equal(final) {
		fmt.Fprintf(stderr, "event-log replay diverged from the served graph (replay n=%d m=%d, live n=%d m=%d)\n",
			replayed.NumNodes(), replayed.NumEdges(), final.NumNodes(), final.NumEdges())
		return 1
	}

	// Span-log verification: one span per healed deletion, correlated with
	// the trace log, agreeing with the engine's cost ledger, zero drops.
	if err := verifySpans(d, c); err != nil {
		fmt.Fprintf(stderr, "SPAN VERIFICATION: %v\n", err)
		return 1
	}

	if err := checkAudits(d, o); err != nil {
		fmt.Fprintf(stderr, "TRACKER AUDIT: %v\n", err)
		return 1
	}

	// SLO assertions (the CI smoke gate): dropped spans always fail; the
	// tick-latency bound applies when set.
	if dropped := d.rec.Dropped(); dropped != 0 {
		fmt.Fprintf(stderr, "SLO: %d spans dropped, want 0\n", dropped)
		return 1
	}
	if o.sloP99TickMS > 0 && health.Obs.TickLatency.P99MS > o.sloP99TickMS {
		fmt.Fprintf(stderr, "SLO: p99 tick latency %.3f ms exceeds bound %.3f ms\n",
			health.Obs.TickLatency.P99MS, o.sloP99TickMS)
		return 1
	}

	report := loadReport{
		Engine:          o.engine,
		Workload:        o.wl,
		InitialNodes:    d.g0.NumNodes(),
		Clients:         o.clients,
		EventsPerClient: o.events,
		EventsTotal:     c.EventsApplied,
		WallMS:          float64(wall.Microseconds()) / 1000,
		EventsPerSec:    float64(c.EventsApplied) / wall.Seconds(),
		Ticks:           c.Ticks,
		MeanBatch:       float64(c.EventsApplied) / float64(max(1, c.Ticks)),
		BatchMax:        c.BatchMax,
		Deferred:        c.EventsDeferred,
		Rejected:        c.EventsRejected,
		Backlogged:      c.EventsBacklogged,
		Retries:         retries.Load(),
		ApplyMSTotal:    c.ApplySeconds * 1000,
		MeanWaitMS:      c.WaitSeconds * 1000 / float64(max(1, c.EventsApplied)),
		FinalNodes:      final.NumNodes(),
		FinalEdges:      final.NumEdges(),
		ReplayIdentical: true,
		TickLatency:     health.Obs.TickLatency,
		RepairLatency:   health.Obs.RepairLatency,
		Spans:           d.rec.Spans(),
		SpansDropped:    d.rec.Dropped(),
		Env:             obs.CaptureEnv(),
	}
	fmt.Fprintf(stdout, "%s ok: %d events in %.1f ms (%.0f events/sec), %d ticks, mean batch %.1f (max %d), %d deferred, %d backoff retries\n",
		mode, report.EventsTotal, report.WallMS, report.EventsPerSec,
		report.Ticks, report.MeanBatch, report.BatchMax, report.Deferred, report.Retries)
	fmt.Fprintf(stdout, "invariants ok, health ok, event log replays to identical graph (n=%d m=%d)\n",
		report.FinalNodes, report.FinalEdges)
	fmt.Fprintf(stdout, "tick latency p50/p95/p99 = %.3f/%.3f/%.3f ms over %d ticks\n",
		report.TickLatency.P50MS, report.TickLatency.P95MS, report.TickLatency.P99MS, report.TickLatency.Count)
	if rl := report.RepairLatency; rl != nil {
		fmt.Fprintf(stdout, "repair latency p50/p95/p99 = %.3f/%.3f/%.3f ms over %d spans (0 dropped)\n",
			rl.P50MS, rl.P95MS, rl.P99MS, rl.Count)
	}

	if o.benchOut != "" {
		if dir := filepath.Dir(o.benchOut); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := os.WriteFile(o.benchOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", o.benchOut)
	}
	return 0
}

// verifySpans checks the span log against the run's ground truth: exactly
// one span per applied deletion, each span's event index naming the matching
// deletion line of the trace event log, and — on the distributed engine —
// every span's rounds and messages equal to the engine cost-ledger entry of
// the same ordinal.
func verifySpans(d *daemon, c server.Counters) error {
	if err := d.closeSpanLog(); err != nil {
		return fmt.Errorf("close span log: %w", err)
	}
	sf, err := os.Open(d.spanPath)
	if err != nil {
		return err
	}
	spans, err := obs.ReadSpans(sf)
	sf.Close()
	if err != nil {
		return err
	}
	if uint64(len(spans)) != c.DeletesApplied {
		return fmt.Errorf("%d spans for %d applied deletions", len(spans), c.DeletesApplied)
	}
	if got := d.rec.Spans(); got != uint64(len(spans)) {
		return fmt.Errorf("recorder counted %d spans, log holds %d", got, len(spans))
	}

	lf, err := os.Open(d.logPath)
	if err != nil {
		return err
	}
	tr, err := trace.Load(lf)
	lf.Close()
	if err != nil {
		return fmt.Errorf("load trace log: %w", err)
	}
	deletions := 0
	for _, ev := range tr.Events {
		if ev.Kind == "delete" {
			deletions++
		}
	}
	if deletions != len(spans) {
		return fmt.Errorf("%d spans for %d trace-log deletions", len(spans), deletions)
	}
	for i, s := range spans {
		if s.Event < 0 || s.Event >= len(tr.Events) {
			return fmt.Errorf("span %d: event index %d outside trace log (%d events)", i, s.Event, len(tr.Events))
		}
		ev := tr.Events[s.Event]
		if ev.Kind != "delete" || ev.Node != s.Node {
			return fmt.Errorf("span %d: event %d is %s %d, span says delete %d",
				i, s.Event, ev.Kind, ev.Node, s.Node)
		}
	}

	if d.dist != nil {
		costs := d.dist.Costs()
		if len(costs) != len(spans) {
			return fmt.Errorf("%d spans for %d cost-ledger entries", len(spans), len(costs))
		}
		for i, s := range spans {
			cl := costs[i]
			if s.Node != cl.Node || s.Rounds != cl.Rounds || s.Messages != cl.Messages {
				return fmt.Errorf("span %d (node %d, %d rounds, %d messages) disagrees with ledger (node %d, %d rounds, %d messages)",
					i, s.Node, s.Rounds, s.Messages, cl.Node, cl.Rounds, cl.Messages)
			}
		}
	}
	return nil
}

// checkAudits gates a run that asked for tracker audits (-audit-every): the
// incremental metrics must never have diverged from a full recomputation,
// and the oracle must actually have run.
func checkAudits(d *daemon, o options) error {
	if o.auditEvery <= 0 {
		return nil
	}
	if err := d.srv.LiveAuditError(); err != nil {
		return err
	}
	if d.srv.Health().Live.Audits == 0 {
		return fmt.Errorf("-audit-every %d, but the run was too short for a single audit", o.auditEvery)
	}
	return nil
}

// errRetryable marks a verdict the client may retry: 503, the daemon's
// queue-backpressure (ErrBacklog) answer. The event was refused before
// enqueueing, so a retry can never double-apply it.
var errRetryable = errors.New("retryable rejection")

// postEvent sends one event and decodes the daemon's verdict.
func postEvent(client *http.Client, base string, ev adversary.Event) error {
	wire := server.IngestEvent{Node: ev.Node, Neighbors: ev.Neighbors}
	switch ev.Kind {
	case adversary.Insert:
		wire.Kind = "insert"
	case adversary.Delete:
		wire.Kind = "delete"
	}
	body, err := json.Marshal(wire)
	if err != nil {
		return err
	}
	resp, err := client.Post(base+"/v1/events", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var out server.IngestResponse
		_ = json.NewDecoder(resp.Body).Decode(&out)
		err := fmt.Errorf("%s %d: HTTP %d: %s", strings.ToLower(wire.Kind), ev.Node, resp.StatusCode, out.Error)
		if resp.StatusCode == http.StatusServiceUnavailable {
			err = fmt.Errorf("%w: %w", errRetryable, err)
		}
		return err
	}
	return nil
}

func getHealth(client *http.Client, base string) (server.Health, error) {
	var h server.Health
	resp, err := client.Get(base + "/v1/health")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, fmt.Errorf("decode health: %w", err)
	}
	return h, nil
}
