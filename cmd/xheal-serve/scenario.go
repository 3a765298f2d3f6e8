package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/checkpoint"
	"github.com/xheal/xheal/internal/dist"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/obs"
	"github.com/xheal/xheal/internal/scenario"
	"github.com/xheal/xheal/internal/server"
	"github.com/xheal/xheal/internal/trace"
)

// The -scenario mode drives a named chaos scenario from internal/scenario
// over the daemon's real HTTP surface, one wave per array POST, and gates
// the run on serving SLOs: zero acknowledged loss (no rejections), zero
// invariant violations, bounded sampled queue depth, p99 tick latency under
// -slo-p99-tick-ms, zero dropped spans, and replay identity of the event
// log. With -soak-minutes N it becomes a durable long soak instead: the
// stream runs unbounded against a -data-dir daemon while periodic probes
// recover the on-disk state (PR-7 machinery) and assert the watermark only
// moves forward, finishing with a full byte-identity recovery verification
// against the archived from-genesis log. Both variants emit a
// machine-readable pass/fail report (-scenario-out).

// scenarioReport is the -scenario-out schema: one JSON document carrying the
// run's parameters, throughput, latency percentiles, counters,
// recovery-probe results, and the SLO verdict.
type scenarioReport struct {
	Scenario    string  `json:"scenario"`
	Description string  `json:"description"`
	Engine      string  `json:"engine"`
	Workload    string  `json:"workload"`
	Parallelism int     `json:"parallelism"`
	N           int     `json:"n"`
	Wave        int     `json:"wave"`
	RateTarget  float64 `json:"rate_target"`
	Seed        int64   `json:"seed"`
	Soak        bool    `json:"soak"`
	SoakMinutes float64 `json:"soak_minutes,omitempty"`

	WallMS        float64 `json:"wall_ms"`
	EventsTotal   uint64  `json:"events_total"`
	Waves         int     `json:"waves"`
	Reads         uint64  `json:"reads"`
	EventsPerSec  float64 `json:"events_per_sec"`
	Ticks         uint64  `json:"ticks"`
	MeanBatch     float64 `json:"mean_batch"`
	Deferred      uint64  `json:"deferred"`
	Rejected      uint64  `json:"rejected"`
	Backlogged    uint64  `json:"backlogged"`
	Retries       uint64  `json:"retries"`
	MaxQueueDepth int     `json:"max_queue_depth"`
	QueueBound    int     `json:"queue_bound"`
	FinalNodes    int     `json:"final_nodes"`
	FinalEdges    int     `json:"final_edges"`

	// ReplayIdentical: the event log replays to the identical final graph.
	// ByteIdentical: a from-genesis per-event replay reaches a byte-identical
	// engine snapshot (finite mode: against the live engine; soak mode: the
	// VerifyRecovery check against the archived log).
	ReplayIdentical bool `json:"replay_identical"`
	ByteIdentical   bool `json:"byte_identical"`

	TickLatency   obs.LatencySummary  `json:"tick_latency"`
	RepairLatency *obs.LatencySummary `json:"repair_latency,omitempty"`
	Spans         uint64              `json:"spans"`
	SpansDropped  uint64              `json:"spans_dropped"`

	Checkpoints      uint64      `json:"checkpoints,omitempty"`
	CheckpointErrors uint64      `json:"checkpoint_errors,omitempty"`
	Probes           *probeStats `json:"recovery_probes,omitempty"`

	SLOP99TickMS float64  `json:"slo_p99_tick_ms,omitempty"`
	Pass         bool     `json:"pass"`
	Failures     []string `json:"failures,omitempty"`
	Env          obs.Env  `json:"env"`
}

// probeStats summarizes the soak's mid-run recovery probes.
type probeStats struct {
	Probes     int    `json:"probes"`
	Retries    int    `json:"retries"`
	Failures   int    `json:"failures"`
	FirstError string `json:"first_error,omitempty"`
	// LastEvents is the newest recovered Events watermark a probe observed.
	LastEvents uint64 `json:"last_events"`
}

// resolveScenario turns the flags into a running stream and aligns the
// daemon options with it: the daemon must build the exact genesis the stream
// compiled against, so workload/n/seed are forced to the resolved scenario
// parameters (explicit -n/-events/-seed flags override scenario defaults).
func resolveScenario(o *options) (*scenario.Stream, error) {
	p := scenario.Params{Wave: o.wave, Rate: o.rate}
	if o.flagSet("n") {
		p.N = o.n
	}
	if o.flagSet("events") {
		p.Events = o.events
	}
	if o.flagSet("seed") {
		p.Seed = o.seed
	}
	st, err := scenario.NewStream(o.scenarioName, p)
	if err != nil {
		return nil, err
	}
	rp := st.Params()
	o.wl, o.n, o.seed = st.Scenario().Workload, rp.N, rp.Seed
	return st, nil
}

func runScenario(o options, stdout, stderr io.Writer) int {
	st, err := resolveScenario(&o)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if o.soakMinutes > 0 {
		return runScenarioSoak(o, st, stdout, stderr)
	}
	return runScenarioFinite(o, st, stdout, stderr)
}

// scenarioRun is the state shared by the finite and soak drivers.
type scenarioRun struct {
	o        options
	st       *scenario.Stream
	d        *daemon
	client   *http.Client
	base     string
	bo       adversary.Backoff
	retries  uint64
	reads    uint64
	waves    int
	sent     uint64
	maxQueue atomic.Int64
	stopQ    chan struct{}
	failures []string
}

func (r *scenarioRun) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// startHTTP serves the daemon on a loopback port and starts the queue-depth
// sampler.
func (r *scenarioRun) startHTTP() (*http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: r.d.handler(r.o)}
	go func() { _ = httpSrv.Serve(ln) }()
	r.base = "http://" + ln.Addr().String()
	r.client = &http.Client{Transport: &http.Transport{MaxIdleConns: 8, MaxIdleConnsPerHost: 8}}
	r.bo = adversary.Backoff{
		Base: time.Millisecond,
		Max:  250 * time.Millisecond,
		Rng:  rand.New(rand.NewSource(r.o.seed + 4000)),
	}
	r.stopQ = make(chan struct{})
	go func() {
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-r.stopQ:
				return
			case <-t.C:
				if d := int64(r.d.srv.QueueDepth()); d > r.maxQueue.Load() {
					r.maxQueue.Store(d)
				}
			}
		}
	}()
	return httpSrv, nil
}

// postWave submits one wave as a single array POST. A 503 verdict is
// backpressure: the response's Applied counts the prefix that was accepted
// before the queue filled, so the retry resubmits only the unapplied tail —
// an acknowledged event is never resent.
func (r *scenarioRun) postWave(events []adversary.Event) error {
	wire := make([]server.IngestEvent, len(events))
	for i, ev := range events {
		wire[i] = server.IngestEvent{Node: ev.Node, Neighbors: ev.Neighbors}
		switch ev.Kind {
		case adversary.Insert:
			wire[i].Kind = "insert"
		case adversary.Delete:
			wire[i].Kind = "delete"
		}
	}
	const maxAttempts = 10
	for attempt := 0; len(wire) > 0; attempt++ {
		body, err := json.Marshal(wire)
		if err != nil {
			return err
		}
		resp, err := r.client.Post(r.base+"/v1/events", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		var out server.IngestResponse
		decErr := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if decErr != nil {
			return fmt.Errorf("decode ingest response: %w", decErr)
		}
		if out.Applied < 0 || out.Applied > len(wire) {
			return fmt.Errorf("ingest response applied=%d for %d events", out.Applied, len(wire))
		}
		wire = wire[out.Applied:]
		switch {
		case resp.StatusCode == http.StatusOK:
			if len(wire) != 0 {
				return fmt.Errorf("HTTP 200 but %d of the wave's events unapplied", len(wire))
			}
		case resp.StatusCode == http.StatusServiceUnavailable && attempt < maxAttempts-1:
			r.retries++
			time.Sleep(r.bo.Delay(attempt))
		default:
			return fmt.Errorf("wave refused: HTTP %d: %s (%d events unapplied)", resp.StatusCode, out.Error, len(wire))
		}
	}
	return nil
}

// doReads issues the scenario's interleaved read traffic: alternating
// health and metrics queries, each verified for liveness.
func (r *scenarioRun) doReads(n int) error {
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			h, err := getHealth(r.client, r.base)
			if err != nil {
				return err
			}
			if h.Status != "ok" || !h.Connected {
				return fmt.Errorf("unhealthy mid-scenario: status=%s connected=%v", h.Status, h.Connected)
			}
		} else {
			resp, err := r.client.Get(r.base + "/metrics")
			if err != nil {
				return err
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("metrics scrape: HTTP %d", resp.StatusCode)
			}
		}
		r.reads++
	}
	return nil
}

// nextWave pulls up to k events from the stream.
func (r *scenarioRun) nextWave(k int) []adversary.Event {
	wave := make([]adversary.Event, k)
	for i := range wave {
		wave[i] = r.st.Next()
	}
	return wave
}

// report assembles the common report fields after the daemon has closed.
func (r *scenarioRun) report(wall time.Duration, c server.Counters, final *graph.Graph, health server.Health) scenarioReport {
	p := r.st.Params()
	rep := scenarioReport{
		Scenario:      r.o.scenarioName,
		Description:   r.st.Scenario().Description,
		Engine:        r.o.engine,
		Workload:      r.o.wl,
		Parallelism:   r.o.parallel,
		N:             p.N,
		Wave:          p.Wave,
		RateTarget:    p.Rate,
		Seed:          p.Seed,
		WallMS:        float64(wall.Microseconds()) / 1000,
		EventsTotal:   r.sent,
		Waves:         r.waves,
		Reads:         r.reads,
		EventsPerSec:  float64(r.sent) / wall.Seconds(),
		Ticks:         c.Ticks,
		MeanBatch:     float64(c.EventsApplied) / float64(max(1, c.Ticks)),
		Deferred:      c.EventsDeferred,
		Rejected:      c.EventsRejected,
		Backlogged:    c.EventsBacklogged,
		Retries:       r.retries,
		MaxQueueDepth: int(r.maxQueue.Load()),
		QueueBound:    r.queueBound(),
		FinalNodes:    final.NumNodes(),
		FinalEdges:    final.NumEdges(),
		TickLatency:   health.Obs.TickLatency,
		RepairLatency: health.Obs.RepairLatency,
		Spans:         health.Obs.Spans,
		SpansDropped:  health.Obs.SpansDropped,
		SLOP99TickMS:  r.o.sloP99TickMS,
		Env:           obs.CaptureEnv(),
	}
	return rep
}

func (r *scenarioRun) queueBound() int {
	if r.o.sloMaxQueue > 0 {
		return r.o.sloMaxQueue
	}
	return r.o.queue
}

// checkCommonSLOs applies the gates both variants share.
func (r *scenarioRun) checkCommonSLOs(c server.Counters, health server.Health) {
	if c.EventsRejected != 0 {
		r.failf("SLO: %d events rejected, want 0 (acknowledged loss)", c.EventsRejected)
	}
	if err := r.d.srv.CheckInvariants(); err != nil {
		r.failf("SLO: invariant violation: %v", err)
	}
	if err := checkAudits(r.d, r.o); err != nil {
		r.failf("SLO: tracker audit: %v", err)
	}
	if depth := r.d.srv.QueueDepth(); depth != 0 {
		r.failf("queue not drained on shutdown: %d", depth)
	}
	if mq := int(r.maxQueue.Load()); mq > r.queueBound() {
		r.failf("SLO: sampled queue depth peaked at %d, bound %d", mq, r.queueBound())
	}
	if r.d.rec != nil {
		if dropped := r.d.rec.Dropped(); dropped != 0 {
			r.failf("SLO: %d spans dropped, want 0", dropped)
		}
	}
	if r.o.sloP99TickMS > 0 && health.Obs.TickLatency.P99MS > r.o.sloP99TickMS {
		r.failf("SLO: p99 tick latency %.3f ms exceeds bound %.3f ms", health.Obs.TickLatency.P99MS, r.o.sloP99TickMS)
	}
}

// finish writes the report and renders the verdict.
func (r *scenarioRun) finish(rep scenarioReport, stdout, stderr io.Writer) int {
	rep.Pass = len(r.failures) == 0
	rep.Failures = r.failures
	if r.o.scenarioOut != "" {
		if dir := filepath.Dir(r.o.scenarioOut); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := os.WriteFile(r.o.scenarioOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", r.o.scenarioOut)
	}
	fmt.Fprintf(stdout, "scenario %s: %d events in %d waves (%.0f events/sec), %d reads, %d ticks, mean batch %.1f, %d deferred, %d retries, max queue %d\n",
		rep.Scenario, rep.EventsTotal, rep.Waves, rep.EventsPerSec, rep.Reads, rep.Ticks, rep.MeanBatch, rep.Deferred, rep.Retries, rep.MaxQueueDepth)
	fmt.Fprintf(stdout, "tick latency p50/p95/p99 = %.3f/%.3f/%.3f ms over %d ticks\n",
		rep.TickLatency.P50MS, rep.TickLatency.P95MS, rep.TickLatency.P99MS, rep.TickLatency.Count)
	if !rep.Pass {
		for _, f := range r.failures {
			fmt.Fprintln(stderr, "FAIL:", f)
		}
		fmt.Fprintf(stderr, "scenario %s: FAIL (%d violations)\n", rep.Scenario, len(r.failures))
		return 1
	}
	fmt.Fprintf(stdout, "scenario %s: PASS\n", rep.Scenario)
	return 0
}

// runScenarioFinite runs the scenario's compiled event budget over HTTP and
// gates on the serving SLOs plus replay and byte identity of the event log.
func runScenarioFinite(o options, st *scenario.Stream, stdout, stderr io.Writer) int {
	if o.dataDir != "" {
		fmt.Fprintln(stderr, "finite -scenario runs are non-durable; use -soak-minutes for the durable soak (-data-dir) path")
		return 1
	}
	// A temp event log is cleaned up only on a passing run: on failure it is
	// the replay artifact (the printed xheal-sim -replay line must work).
	keepLog := o.eventLog != ""
	if o.eventLog == "" {
		tmp, err := os.CreateTemp("", "xheal-scenario-*.log")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		tmp.Close()
		o.eventLog = tmp.Name()
		defer func() {
			if !keepLog {
				os.Remove(o.eventLog)
			}
		}()
	}
	if o.spanLog == "" {
		tmp, err := os.CreateTemp("", "xheal-scenario-*.spans")
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
	if !d.g0.Equal(st.Genesis()) {
		fmt.Fprintln(stderr, "daemon genesis does not match the scenario stream's (seed plumbing bug)")
		return 1
	}

	r := &scenarioRun{o: o, st: st, d: d}
	httpSrv, err := r.startHTTP()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	p := st.Params()
	fmt.Fprintf(stdout, "xheal-serve scenario: %s engine=%s workload=%s n=%d wave=%d rate=%.0f/s events=%d seed=%d parallelism=%d\n",
		o.scenarioName, o.engine, o.wl, p.N, p.Wave, p.Rate, p.Events, p.Seed, o.parallel)

	var interval time.Duration
	if p.Rate > 0 {
		interval = time.Duration(float64(p.Wave) / p.Rate * float64(time.Second))
	}
	start := time.Now()
	next := start
	readsPerWave := st.Scenario().ReadsPerWave
	for sent := 0; sent < p.Events; {
		if interval > 0 {
			time.Sleep(time.Until(next))
			next = next.Add(interval)
		}
		wave := r.nextWave(min(p.Wave, p.Events-sent))
		if err := r.postWave(wave); err != nil {
			fmt.Fprintf(stderr, "wave %d: %v\n", r.waves, err)
			return 1
		}
		if err := r.doReads(readsPerWave); err != nil {
			fmt.Fprintf(stderr, "wave %d reads: %v\n", r.waves, err)
			return 1
		}
		r.waves++
		sent += len(wave)
		r.sent += uint64(len(wave))
	}
	wall := time.Since(start)

	health, err := getHealth(r.client, r.base)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	_ = httpSrv.Close()
	close(r.stopQ)
	if err := d.srv.Close(); err != nil {
		fmt.Fprintf(stderr, "event log: %v\n", err)
		return 1
	}
	c := d.srv.Counters()
	final := d.srv.Graph()

	r.checkCommonSLOs(c, health)
	if health.Status != "ok" || !health.Connected {
		r.failf("unhealthy after load: status=%s connected=%v", health.Status, health.Connected)
	}
	if c.EventsApplied != r.sent {
		r.failf("applied %d of %d submitted events", c.EventsApplied, r.sent)
	}

	rep := r.report(wall, c, final, health)
	rep.Soak = false

	// Replay identity: the event log reproduces the served graph...
	lf, err := os.Open(o.eventLog)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	replayed, err := server.ReplayLog(lf, o.kappa, o.seed)
	lf.Close()
	switch {
	case err != nil:
		r.failf("event-log replay: %v", err)
	case !replayed.Equal(final):
		r.failf("event-log replay diverged (replay n=%d m=%d, live n=%d m=%d)",
			replayed.NumNodes(), replayed.NumEdges(), final.NumNodes(), final.NumEdges())
	default:
		rep.ReplayIdentical = true
	}
	// ... and a per-event from-genesis replay on the daemon's own engine
	// type reaches a byte-identical snapshot (the -crashloop/VerifyRecovery
	// identity property, here asserted on a live non-durable run).
	if err := replayByteIdentity(d, o); err != nil {
		r.failf("byte identity: %v", err)
	} else {
		rep.ByteIdentical = true
	}
	if err := verifySpans(d, c); err != nil {
		r.failf("span verification: %v", err)
	}
	fmt.Fprintf(stdout, "replay: xheal-sim -replay %s -kappa %d -seed %d\n", o.eventLog, o.kappa, o.seed)
	code := r.finish(rep, stdout, stderr)
	if code != 0 {
		keepLog = true
	}
	return code
}

// replayByteIdentity replays the finite run's event log one event per
// timestep on a fresh engine of the same kind and compares engine snapshots
// byte-for-byte with the live engine (server.VerifyReplay, the check
// VerifyRecovery runs against an archived log).
func replayByteIdentity(d *daemon, o options) error {
	engName, err := engineName(o.engine)
	if err != nil {
		return err
	}
	lf, err := os.Open(d.logPath)
	if err != nil {
		return err
	}
	tr, err := trace.Load(lf)
	lf.Close()
	if err != nil {
		return err
	}
	return server.VerifyReplay(d.eng, engName, tr, o.kappa, o.seed)
}

// runScenarioSoak is the long-soak variant: a durable daemon under an
// unbounded scenario stream, with periodic recovery probes and a final
// recovery-identity verification against the archived log.
func runScenarioSoak(o options, st *scenario.Stream, stdout, stderr io.Writer) int {
	if o.eventLog != "" {
		fmt.Fprintln(stderr, "-event-log and soak mode are mutually exclusive (the data dir owns a segmented log)")
		return 1
	}
	if o.dataDir == "" {
		dir, err := os.MkdirTemp("", "xheal-soak-*")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		o.dataDir = dir
		defer os.RemoveAll(dir)
	}
	// The final identity check replays the full from-genesis history, so the
	// soak always archives compacted segments.
	o.archiveLog = true
	if o.spanLog == "" {
		tmp, err := os.CreateTemp("", "xheal-soak-*.spans")
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
	engName, err := engineName(o.engine)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// The probe store is created once, up front, while no checkpoint save can
	// be in flight: NewFileStore sweeps orphaned temp files at open, and a
	// sweep racing the server's own mid-save temp file would delete it.
	ckptDir := filepath.Join(o.dataDir, "checkpoints")
	logDir := filepath.Join(o.dataDir, "log")
	probeStore, err := checkpoint.NewFileStore(ckptDir, 3)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	r := &scenarioRun{o: o, st: st, d: d}
	httpSrv, err := r.startHTTP()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	p := st.Params()
	soakDur := time.Duration(o.soakMinutes * float64(time.Minute))
	fmt.Fprintf(stdout, "xheal-serve soak: %s engine=%s workload=%s n=%d wave=%d rate=%.0f/s seed=%d duration=%v data-dir=%s\n",
		o.scenarioName, o.engine, o.wl, p.N, p.Wave, p.Rate, p.Seed, soakDur, o.dataDir)
	if rec := d.recovered; rec != nil && rec.FromCheckpoint {
		fmt.Fprintf(stdout, "resumed from checkpoint: events=%d tick=%d replayed=%d\n", rec.Events, rec.Tick, rec.Replayed)
	}

	var interval time.Duration
	if p.Rate > 0 {
		interval = time.Duration(float64(p.Wave) / p.Rate * float64(time.Second))
	}
	probeEvery := 3 * time.Second
	if soakDur < 4*probeEvery {
		probeEvery = soakDur / 4
	}
	probes := &probeStats{}
	resumeBase := uint64(0)
	if d.recovered != nil {
		resumeBase = d.recovered.Events
	}
	probes.LastEvents = resumeBase

	start := time.Now()
	deadline := start.Add(soakDur)
	next := start
	lastProbe := start
	readsPerWave := st.Scenario().ReadsPerWave
	for time.Now().Before(deadline) {
		if interval > 0 {
			time.Sleep(time.Until(next))
			next = next.Add(interval)
		}
		wave := r.nextWave(p.Wave)
		if err := r.postWave(wave); err != nil {
			fmt.Fprintf(stderr, "wave %d: %v\n", r.waves, err)
			return 1
		}
		if err := r.doReads(readsPerWave); err != nil {
			fmt.Fprintf(stderr, "wave %d reads: %v\n", r.waves, err)
			return 1
		}
		r.waves++
		r.sent += uint64(len(wave))

		if time.Since(lastProbe) >= probeEvery {
			lastProbe = time.Now()
			events, retries, err := probeRecovery(probeStore, logDir, engName, o, d.g0, probes.LastEvents)
			probes.Probes++
			probes.Retries += retries
			if err != nil {
				probes.Failures++
				if probes.FirstError == "" {
					probes.FirstError = err.Error()
				}
			} else {
				probes.LastEvents = events
			}
		}
	}
	wall := time.Since(start)

	health, err := getHealth(r.client, r.base)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	_ = httpSrv.Close()
	close(r.stopQ)
	if err := d.srv.Close(); err != nil {
		fmt.Fprintf(stderr, "event log: %v\n", err)
		return 1
	}
	c := d.srv.Counters()
	final := d.srv.Graph()

	r.checkCommonSLOs(c, health)
	if health.Status != "ok" || !health.Connected {
		r.failf("unhealthy after soak: status=%s connected=%v", health.Status, health.Connected)
	}
	if c.EventsApplied != r.sent {
		r.failf("applied %d of %d submitted events", c.EventsApplied, r.sent)
	}
	if c.CheckpointErrors != 0 {
		r.failf("%d checkpoint errors during soak", c.CheckpointErrors)
	}
	if probes.Probes == 0 {
		r.failf("soak finished without a single recovery probe")
	}
	if probes.Failures > 0 {
		r.failf("%d of %d recovery probes failed (first: %s)", probes.Failures, probes.Probes, probes.FirstError)
	}
	if r.d.rec != nil {
		if spans := r.d.rec.Spans(); spans != c.DeletesApplied {
			r.failf("%d repair spans for %d applied deletions", spans, c.DeletesApplied)
		}
	}

	rep := r.report(wall, c, final, health)
	rep.Soak = true
	rep.SoakMinutes = o.soakMinutes
	rep.Checkpoints = c.Checkpoints
	rep.CheckpointErrors = c.CheckpointErrors
	rep.Probes = probes

	// Final recovery: the on-disk state must rebuild to exactly the events
	// the daemon acknowledged, and verify byte-identical against a
	// from-genesis replay of the archived log.
	rec, err := server.Recover(server.RecoverConfig{
		Store: probeStore, LogDir: logDir,
		Engine: engName, Kappa: o.kappa, Seed: o.seed, Genesis: d.g0,
	})
	if err != nil {
		r.failf("final recovery: %v", err)
	} else {
		want := resumeBase + c.EventsApplied
		if rec.Events != want {
			r.failf("final recovery found %d events, daemon acknowledged %d", rec.Events, want)
		}
		if !rec.Engine.Graph().Equal(final) {
			r.failf("final recovered graph differs from the served graph")
		}
		if err := server.VerifyRecovery(rec.Engine, engName, logDir, o.kappa, o.seed); err != nil {
			r.failf("recovery identity: %v", err)
		} else {
			rep.ReplayIdentical = true
			rep.ByteIdentical = true
		}
		if de, ok := rec.Engine.(*dist.Engine); ok {
			de.Close()
		}
	}
	fmt.Fprintf(stdout, "soak: %d checkpoints, %d recovery probes (%d retries), final watermark %d events\n",
		c.Checkpoints, probes.Probes, probes.Retries, probes.LastEvents)
	return r.finish(rep, stdout, stderr)
}

// probeRecovery recovers the durable state mid-run and asserts the Events
// watermark is monotone. Log compaction/archiving can rename segments under
// a probe, so transient load errors get bounded retries before counting as
// a failure.
func probeRecovery(store checkpoint.Store, logDir, engName string, o options, g0 *graph.Graph, lastEvents uint64) (uint64, int, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		rec, err := server.Recover(server.RecoverConfig{
			Store: store, LogDir: logDir,
			Engine: engName, Kappa: o.kappa, Seed: o.seed, Genesis: g0,
		})
		if err != nil {
			lastErr = err
			time.Sleep(10 * time.Millisecond)
			continue
		}
		events := rec.Events
		if de, ok := rec.Engine.(*dist.Engine); ok {
			de.Close()
		}
		if events < lastEvents {
			return events, attempt, fmt.Errorf("recovery watermark went backwards: %d < %d", events, lastEvents)
		}
		return events, attempt, nil
	}
	return lastEvents, 3, lastErr
}
