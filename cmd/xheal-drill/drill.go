package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/checkpoint"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/obs"
	"github.com/xheal/xheal/internal/scenario"
	"github.com/xheal/xheal/internal/server"
	"github.com/xheal/xheal/internal/trace"
)

// pollEvery is the health poller's period: short enough to see a queue that
// holds a wave across a 2 ms gather and a tick, long enough to cost nothing.
const pollEvery = 10 * time.Millisecond

// auditEvery is the tracker-audit cadence the drill asks of the daemon unless
// the flags after "--" say otherwise: the shortest default scenario is 15
// ticks long and must still see an audit.
const auditEvery = 4

// engineNames maps the daemon's -engine values onto the names checkpoints
// and server.Recover use.
var engineNames = map[string]string{"seq": server.EngineCore, "dist": server.EngineDist}

// report is the -out schema: the run's parameters, what it drove, what the
// daemon said about itself, every restart, and the verdict.
type report struct {
	Scenario    string   `json:"scenario"`
	Description string   `json:"description"`
	DaemonArgs  []string `json:"daemon_args"`
	Engine      string   `json:"engine"`
	Kappa       int      `json:"kappa"`
	N           int      `json:"n"`
	Wave        int      `json:"wave"`
	RateTarget  float64  `json:"rate_target"`
	Seed        int64    `json:"seed"`
	Minutes     float64  `json:"minutes,omitempty"`
	KillEvery   string   `json:"kill_every,omitempty"`

	WallMS       float64 `json:"wall_ms"`
	EventsTotal  uint64  `json:"events_total"`
	Waves        int     `json:"waves"`
	Reads        uint64  `json:"reads"`
	Resends      uint64  `json:"resends"`
	EventsPerSec float64 `json:"events_per_sec"`
	// MaxQueueDepth is the deepest queue any health reading showed; the gate
	// is one wave, all the drill ever has in flight.
	MaxQueueDepth int `json:"max_queue_depth"`

	// From the last incarnation's final /v1/health (Ticks and events are
	// cumulative across restarts, the rest is that process's own).
	Ticks         uint64              `json:"ticks"`
	Checkpoints   uint64              `json:"checkpoints"`
	TickLatency   obs.LatencySummary  `json:"tick_latency"`
	RepairLatency *obs.LatencySummary `json:"repair_latency,omitempty"`
	Spans         uint64              `json:"spans"`
	SpansDropped  uint64              `json:"spans_dropped"`
	// Audits sums tracker audits over every incarnation; MaxP99TickMS is the
	// worst incarnation's p99 tick latency, the value -slo-p99-tick-ms bounds.
	Audits       uint64  `json:"audits"`
	MaxP99TickMS float64 `json:"max_p99_tick_ms"`

	Kills    int       `json:"kills"`
	Restarts []restart `json:"restarts,omitempty"`

	// After the last incarnation exited: what server.Recover rebuilt from
	// the directory, and whether it is byte-identical to a from-genesis
	// replay of the archived log.
	FinalNodes    int  `json:"final_nodes"`
	FinalEdges    int  `json:"final_edges"`
	ByteIdentical bool `json:"byte_identical"`

	SLOP99TickMS float64  `json:"slo_p99_tick_ms,omitempty"`
	Pass         bool     `json:"pass"`
	Failures     []string `json:"failures,omitempty"`
	Env          obs.Env  `json:"env"`
}

// restart is one SIGKILL and what the next incarnation recovered.
type restart struct {
	// Acked events before the kill; Durable is the log's length read while
	// no daemon was alive, Recovered the next incarnation's own count.
	Acked     uint64 `json:"acked"`
	Durable   uint64 `json:"durable"`
	Recovered uint64 `json:"recovered"`
	Source    string `json:"source"`
	Replayed  int    `json:"replayed"`
	TailBound int    `json:"tail_bound"`
	TornTail  bool   `json:"torn_tail"`
	// Resent counts the killed wave's events that had not reached the log.
	Resent int `json:"resent"`
}

// drill is one run's state.
type drill struct {
	o   options
	st  *scenario.Stream
	dir string
	// stdout takes the drill's progress lines; stderr is the daemon's, which
	// writes to it while it lives, so the drill does not.
	stdout, stderr io.Writer
	client         *http.Client
	bo             adversary.Backoff
	rng            *rand.Rand // kill jitter

	rep report
	// settled counts events known applied: acknowledged over HTTP, or found
	// in the log after a kill. alive is the node set they add up to.
	settled uint64
	alive   map[graph.NodeID]struct{}
	// lean is how many spacings of checkpoint opportunities the next
	// recovery tail may run past the checkpoint rule's threshold: one, plus
	// one for every consecutive incarnation killed before it was seen to
	// reach an opportunity (it hands its tail to the next without having
	// had the chance to image it).
	lean int
	// lastPost is how long the previous wave took from POST to ack; a kill
	// is aimed inside that span.
	lastPost time.Duration

	// gates is fed by the current incarnation's poller while it runs, and
	// read or written by the wave loop only once that poller has stopped.
	gates gates
}

func newDrill(o options, st *scenario.Stream, dir string, stdout, stderr io.Writer) *drill {
	p := st.Params()
	d := &drill{
		o: o, st: st, dir: dir, stdout: stdout, stderr: stderr,
		client: &http.Client{Timeout: startTimeout},
		bo:     adversary.Backoff{Base: time.Millisecond, Max: 250 * time.Millisecond, Rng: rand.New(rand.NewSource(p.Seed + 4000))},
		rng:    rand.New(rand.NewSource(p.Seed + 5000)),
		alive:  make(map[graph.NodeID]struct{}, p.N),
		gates:  gates{queueBound: p.Wave, sloP99TickMS: o.sloP99TickMS},
	}
	for _, v := range st.Genesis().Nodes() {
		d.alive[v] = struct{}{}
	}
	d.rep = report{
		Scenario: o.scenario, Description: st.Scenario().Description, DaemonArgs: o.daemonArgs,
		N: p.N, Wave: p.Wave, RateTarget: p.Rate, Seed: p.Seed, Minutes: o.minutes,
		SLOP99TickMS: o.sloP99TickMS, Env: obs.CaptureEnv(),
	}
	if o.killEvery > 0 {
		d.rep.KillEvery = o.killEvery.String()
	}
	return d
}

func (d *drill) dataDir() string { return filepath.Join(d.dir, "data") }
func (d *drill) spanLog() string { return filepath.Join(d.dir, "spans.jsonl") }
func (d *drill) logDir() string  { return filepath.Join(d.dataDir(), "log") }

// childArgs is the daemon's command line: the drill's audit default, then
// the flags after "--", then what the drill owns — last, so nothing before
// it can point the daemon at another genesis or directory.
func (d *drill) childArgs() []string {
	p := d.st.Params()
	args := append([]string{"-audit-every", strconv.Itoa(auditEvery)}, d.o.daemonArgs...)
	return append(args,
		"-addr", "127.0.0.1:0",
		"-workload", d.st.Scenario().Workload, "-n", strconv.Itoa(p.N), "-seed", strconv.FormatInt(p.Seed, 10),
		"-data-dir", d.dataDir(), "-archive-log", "-spanlog", d.spanLog())
}

// run drives the scenario, verifies the directory the daemon left, and
// returns the finished report.
func (d *drill) run() *report {
	start := time.Now()
	final, err := d.drive()
	wall := time.Since(start)
	if err != nil {
		d.gates.failf("%v", err)
	}
	rep := &d.rep
	rep.WallMS = float64(wall.Microseconds()) / 1000
	rep.EventsTotal = d.settled
	rep.EventsPerSec = float64(d.settled) / wall.Seconds()
	rep.MaxQueueDepth, rep.Audits, rep.MaxP99TickMS = d.gates.maxQueue, d.gates.audits, d.gates.maxP99TickMS
	if final != nil {
		rep.Ticks, rep.Checkpoints = final.Counters.Ticks, final.Counters.Checkpoints
		rep.TickLatency, rep.RepairLatency = final.Obs.TickLatency, final.Obs.RepairLatency
		rep.Spans, rep.SpansDropped = final.Obs.Spans, final.Obs.SpansDropped
	}
	if err == nil {
		// Only a run that reached its end left a directory whose contents
		// the drill can predict.
		d.verify()
	}
	rep.Failures = d.gates.failures
	rep.Pass = len(rep.Failures) == 0
	return rep
}

// drive is the wave loop. It returns the last incarnation's final health
// once that incarnation has exited on SIGTERM, or the error that made the
// run pointless to continue.
func (d *drill) drive() (*server.Health, error) {
	c, stopPoll, err := d.start()
	if err != nil {
		return nil, err
	}
	defer func() {
		if c != nil {
			stopPoll()
			c.kill()
		}
	}()
	if c.events != 0 {
		return nil, fmt.Errorf("fresh data dir recovered %d events", c.events)
	}
	d.rep.Engine, d.rep.Kappa = c.engine, c.kappa
	if _, ok := engineNames[c.engine]; !ok {
		return nil, fmt.Errorf("daemon reports engine %q, which the drill cannot recover", c.engine)
	}

	p := d.st.Params()
	var interval time.Duration
	if p.Rate > 0 {
		interval = time.Duration(float64(p.Wave) / p.Rate * float64(time.Second))
	}
	begin := time.Now()
	deadline := begin.Add(time.Duration(d.o.minutes * float64(time.Minute)))
	next, nextKill := begin, begin.Add(d.o.killEvery)
	for sent := 0; ; d.rep.Waves++ {
		k := p.Wave
		if d.o.minutes > 0 {
			if !time.Now().Before(deadline) {
				break
			}
		} else if k = min(k, p.Events-sent); k == 0 {
			break
		}
		if interval > 0 {
			time.Sleep(time.Until(next))
			next = next.Add(interval)
		}
		wave := d.nextWave(k)
		sent += k
		if d.o.killEvery > 0 && !time.Now().Before(nextKill) {
			stopPoll()
			dead := c
			c = nil
			if wave, err = d.killUnder(dead, wave); err != nil {
				return nil, err
			}
			if c, stopPoll, err = d.restart(); err != nil {
				return nil, err
			}
			// The downtime is not owed back as a burst: pacing and the kill
			// clock both restart with the new incarnation.
			next = time.Now()
			nextKill = next.Add(d.o.killEvery)
		}
		posted := time.Now()
		applied, err := d.postWave(c.base, wave)
		d.lastPost = time.Since(posted)
		d.settled += uint64(applied)
		if err != nil {
			return nil, fmt.Errorf("wave %d: %w", d.rep.Waves, err)
		}
		if err := d.reads(c.base, d.st.Scenario().ReadsPerWave); err != nil {
			return nil, fmt.Errorf("wave %d reads: %w", d.rep.Waves, err)
		}
	}

	stopPoll()
	final, err := getHealth(d.client, c.base)
	if err != nil {
		return nil, err
	}
	d.gates.observe(final)
	d.gates.settle(final)
	d.gates.settleFinal(final, d.settled)
	dying := c
	c = nil
	return &final, dying.terminate()
}

// start launches an incarnation and its health poller; the returned func
// stops the poller and returns once it has.
func (d *drill) start() (*child, func(), error) {
	c, err := startChild(d.o.daemon, d.childArgs(), d.stderr)
	if err != nil {
		return nil, nil, err
	}
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		t := time.NewTicker(pollEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			h, err := getHealth(d.client, c.base)
			if err != nil {
				d.gates.failf("health poll: %v", err)
				return
			}
			d.gates.observe(h)
		}
	}()
	return c, func() { close(stop); <-polled }, nil
}

// killUnder posts the wave and SIGKILLs the daemon under it, then — with no
// writer alive — reads the log for what became durable. It returns the part
// of the wave that did not, in its original order, for the next incarnation.
func (d *drill) killUnder(c *child, wave []adversary.Event) ([]adversary.Event, error) {
	// The poller is stopped: its last reading closes this incarnation's books.
	if last := d.gates.last; last != nil {
		d.gates.settle(*last)
		// Ticks count on across restarts, so opportunities fall on one grid.
		if du := last.Durability; du != nil && last.Counters.Ticks/uint64(c.spacing) > du.ResumeTick/uint64(c.spacing) {
			d.lean = 0
		}
	}
	d.gates.last = nil
	d.lean++

	type posted struct {
		applied int
		err     error
	}
	resc := make(chan posted, 1)
	go func() {
		applied, err := d.postWave(c.base, wave)
		resc <- posted{applied, err}
	}()
	// Anywhere from "the array is still in the socket" to "the ack just came
	// back", judged by the wave before: gather, apply, append and fsync all
	// fall inside.
	time.Sleep(time.Duration(d.rng.Int63n(int64(d.lastPost + d.lastPost/4 + 1))))
	c.kill()
	res := <-resc // an error here is the kill itself; the log is the verdict

	full, err := trace.LoadFullLog(d.logDir())
	if err != nil {
		return nil, fmt.Errorf("read log after kill: %w", err)
	}
	rest, err := reconcile(wave, res.applied, full, d.settled)
	if err != nil {
		return nil, err
	}
	d.rep.Kills++
	d.rep.Restarts = append(d.rep.Restarts, restart{
		Acked: d.settled + uint64(res.applied), Durable: uint64(len(full.Events)), Resent: len(rest),
	})
	d.settled = uint64(len(full.Events))
	return rest, nil
}

// reconcile decides, from the log read after a kill, what happened to the
// wave that was in flight: the log past the settled events must hold every
// event of the wave's acknowledged prefix (ack ⇒ durable), may hold more of
// the wave (applied, logged, the ack lost with the process), and nothing
// else. It returns the wave's events the log does not hold.
func reconcile(wave []adversary.Event, acked int, full *trace.Trace, settled uint64) ([]adversary.Event, error) {
	if full.BaseEvents != 0 {
		return nil, fmt.Errorf("log starts at event %d: the archive lost the genesis history", full.BaseEvents)
	}
	if uint64(len(full.Events)) < settled+uint64(acked) {
		return nil, fmt.Errorf("acknowledged loss: %d events acknowledged, the log holds %d", settled+uint64(acked), len(full.Events))
	}
	type key struct {
		kind string
		node graph.NodeID
	}
	inLog := make(map[key]struct{})
	for _, ev := range full.Events[settled:] {
		inLog[key{ev.Kind, ev.Node}] = struct{}{}
	}
	var rest []adversary.Event
	for i, ev := range wave {
		k := key{ev.Kind.String(), ev.Node}
		switch _, ok := inLog[k]; {
		case ok:
			delete(inLog, k)
		case i < acked:
			return nil, fmt.Errorf("acknowledged loss: %s %d was acknowledged and is not in the log", ev.Kind, ev.Node)
		default:
			rest = append(rest, ev)
		}
	}
	for k := range inLog {
		return nil, fmt.Errorf("the log holds %s %d past the last acknowledgement, which the killed wave did not contain", k.kind, k.node)
	}
	return rest, nil
}

// restart brings up the next incarnation on the killed one's directory and
// holds its "recovered:" line to the log: exactly the durable events, and a
// replayed tail within what the checkpoint rule allows. The daemon images
// its state at the first opportunity (every spacing ticks) at which the
// change since the last image has reached the structure's size — the
// checkpoint_due_at_changes the poller read off /v1/health — and every event
// is at least one change, so at an opportunity that took no image the tail
// is shorter than that; one tick holds at most one wave (the drill has no
// more in flight), so a spacing adds at most spacing × wave events, and an
// incarnation killed before its first opportunity hands its tail to the
// next.
func (d *drill) restart() (*child, func(), error) {
	c, stopPoll, err := d.start()
	if err != nil {
		return nil, nil, fmt.Errorf("restart %d: %w", d.rep.Kills, err)
	}
	r := &d.rep.Restarts[len(d.rep.Restarts)-1]
	r.Recovered, r.Source, r.Replayed, r.TornTail = c.events, c.source, c.replayed, c.tornTail
	r.TailBound = int(d.gates.dueMax) + d.lean*c.spacing*d.st.Params().Wave
	switch {
	case r.Recovered != r.Durable:
		err = fmt.Errorf("restart %d: daemon recovered %d events, the log holds %d", d.rep.Kills, r.Recovered, r.Durable)
	case r.Replayed > r.TailBound:
		err = fmt.Errorf("restart %d: recovery replayed %d tail events, the checkpoint rule bounds it at %d", d.rep.Kills, r.Replayed, r.TailBound)
	}
	if err != nil {
		stopPoll()
		c.kill()
		return nil, nil, err
	}
	fmt.Fprintf(d.stdout, "kill %d: %d acked, %d durable, recovered %d from %s (replayed %d ≤ %d), resending %d\n",
		d.rep.Kills, r.Acked, r.Durable, r.Recovered, r.Source, r.Replayed, r.TailBound, r.Resent)
	return c, stopPoll, nil
}

// nextWave pulls k events from the stream and folds them into the node set
// the run must end with.
func (d *drill) nextWave(k int) []adversary.Event {
	wave := make([]adversary.Event, k)
	for i := range wave {
		ev := d.st.Next()
		wave[i] = ev
		if ev.Kind == adversary.Insert {
			d.alive[ev.Node] = struct{}{}
		} else {
			delete(d.alive, ev.Node)
		}
	}
	return wave
}

// postWave submits one wave as a single array POST and returns how many of
// its events — always a prefix — the daemon acknowledged. A 503 is
// backpressure: its Applied counts the prefix the daemon took before the
// queue filled, so only the tail is sent again, after a jittered backoff.
func (d *drill) postWave(base string, events []adversary.Event) (acked int, err error) {
	wire := make([]server.IngestEvent, len(events))
	for i, ev := range events {
		wire[i] = server.IngestEvent{Kind: ev.Kind.String(), Node: ev.Node, Neighbors: ev.Neighbors}
	}
	const maxAttempts = 10
	for attempt := 0; len(wire) > 0; attempt++ {
		body, err := json.Marshal(wire)
		if err != nil {
			return acked, err
		}
		resp, err := d.client.Post(base+"/v1/events", "application/json", bytes.NewReader(body))
		if err != nil {
			return acked, err
		}
		var out server.IngestResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			return acked, fmt.Errorf("decode ingest response: %w", err)
		}
		if out.Applied < 0 || out.Applied > len(wire) {
			return acked, fmt.Errorf("ingest response applied=%d for %d events", out.Applied, len(wire))
		}
		switch {
		case resp.StatusCode == http.StatusOK && out.Applied == len(wire):
		case resp.StatusCode == http.StatusServiceUnavailable && attempt < maxAttempts-1:
			d.rep.Resends++
			time.Sleep(d.bo.Delay(attempt))
		default:
			return acked, fmt.Errorf("wave refused: HTTP %d: %s (%d of %d events applied)", resp.StatusCode, out.Error, out.Applied, len(wire))
		}
		acked += out.Applied
		wire = wire[out.Applied:]
	}
	return acked, nil
}

// reads issues the scenario's interleaved read traffic: alternating health
// and metrics queries, each of which must be answered. (What the health
// answers say is the poller's business.)
func (d *drill) reads(base string, n int) error {
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			if _, err := getHealth(d.client, base); err != nil {
				return err
			}
		} else {
			resp, err := d.client.Get(base + "/metrics")
			if err != nil {
				return err
			}
			_, _ = io.Copy(io.Discard, resp.Body) // only the status is checked
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("metrics scrape: HTTP %d", resp.StatusCode)
			}
		}
		d.rep.Reads++
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
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("health: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, fmt.Errorf("decode health: %w", err)
	}
	if h.Live == nil {
		return h, fmt.Errorf("health: no \"live\" block")
	}
	return h, nil
}

// gates accumulates what the run read off /v1/health and every violation.
type gates struct {
	queueBound   int
	sloP99TickMS float64

	maxQueue     int
	audits       uint64
	maxP99TickMS float64
	// dueMax is the largest checkpoint_due_at_changes any reading showed.
	dueMax uint64
	// last is the current incarnation's newest reading; settle folds it in
	// when the incarnation ends.
	last      *server.Health
	unhealthy bool // reported once; a degraded daemon stays degraded
	failures  []string
}

func (g *gates) failf(format string, args ...any) {
	g.failures = append(g.failures, fmt.Sprintf(format, args...))
}

// observe takes one health reading of a live incarnation.
func (g *gates) observe(h server.Health) {
	g.last = &h
	if (h.Status != "ok" || !h.Connected) && !g.unhealthy {
		g.unhealthy = true
		g.failf("unhealthy mid-run: status=%s connected=%v log_error=%q audit_failures=%d",
			h.Status, h.Connected, h.LogError, h.Live.AuditFailures)
	}
	if du := h.Durability; du != nil && du.CheckpointDueAtChanges > g.dueMax {
		g.dueMax = du.CheckpointDueAtChanges
	}
	if h.QueueDepth > g.maxQueue {
		g.maxQueue = h.QueueDepth
		if h.QueueDepth > g.queueBound {
			g.failf("SLO: queue depth %d with one wave of %d in flight", h.QueueDepth, g.queueBound)
		}
	}
}

// settle closes an incarnation's books on its last reading: the counters
// that must stay zero, and what the run totals take from it.
func (g *gates) settle(h server.Health) {
	c := h.Counters
	if c.EventsRejected+c.EventsNotDurable+c.CheckpointErrors != 0 {
		g.failf("SLO: %d events rejected, %d not durable, %d checkpoint errors; want none",
			c.EventsRejected, c.EventsNotDurable, c.CheckpointErrors)
	}
	if h.Live.AuditFailures != 0 {
		g.failf("SLO: tracker audit diverged from a full recomputation %d times", h.Live.AuditFailures)
	}
	if h.Obs.SpansDropped != 0 {
		g.failf("SLO: %d spans dropped, want 0", h.Obs.SpansDropped)
	}
	g.audits += h.Live.Audits
	if p99 := h.Obs.TickLatency.P99MS; p99 > g.maxP99TickMS {
		g.maxP99TickMS = p99
		if g.sloP99TickMS > 0 && p99 > g.sloP99TickMS {
			g.failf("SLO: p99 tick latency %.3f ms exceeds bound %.3f ms", p99, g.sloP99TickMS)
		}
	}
}

// settleFinal holds the last incarnation's quiescent reading — every wave
// acknowledged, nothing in flight — to the run's own bookkeeping.
func (g *gates) settleFinal(h server.Health, settled uint64) {
	if h.Counters.EventsApplied != settled {
		g.failf("daemon counts %d events applied, the drill settled %d", h.Counters.EventsApplied, settled)
	}
	if h.QueueDepth != 0 {
		g.failf("queue depth %d with nothing in flight", h.QueueDepth)
	}
	if h.Obs.Spans != h.Counters.DeletesApplied {
		g.failf("%d repair spans for %d applied deletions", h.Obs.Spans, h.Counters.DeletesApplied)
	}
	if g.audits == 0 {
		g.failf("no tracker audit ran (-audit-every after -- must be positive and at most the run's %d ticks)", h.Counters.Ticks)
	}
}

// verify checks the directory the last incarnation left, with no daemon
// alive: server.Recover rebuilds it (and sweeps the structural invariants),
// the result must hold exactly the settled events and the node set they add
// up to, and must be byte-identical to a from-genesis replay of the archived
// log. A run without kills also has one span log covering the whole event
// log, and holds the two against each other.
func (d *drill) verify() {
	g := &d.gates
	engine, kappa, seed := engineNames[d.rep.Engine], d.rep.Kappa, d.rep.Seed
	store, err := checkpoint.NewFileStore(filepath.Join(d.dataDir(), "checkpoints"), 3)
	if err != nil {
		g.failf("final recovery: %v", err)
		return
	}
	rec, err := server.Recover(server.RecoverConfig{
		Store: store, LogDir: d.logDir(),
		Engine: engine, Kappa: kappa, Seed: seed, Genesis: d.st.Genesis(),
	})
	if err != nil {
		g.failf("final recovery: %v", err)
		return
	}
	if rec.Events != d.settled {
		g.failf("final recovery found %d events, the drill settled %d", rec.Events, d.settled)
	}
	final := rec.Engine.Graph()
	d.rep.FinalNodes, d.rep.FinalEdges = final.NumNodes(), final.NumEdges()
	if final.NumNodes() != len(d.alive) {
		g.failf("recovered graph has %d nodes, the acknowledged events add up to %d", final.NumNodes(), len(d.alive))
	}
	for v := range d.alive {
		if !final.HasNode(v) {
			g.failf("acknowledged loss: node %d is missing from the recovered graph", v)
			break
		}
	}
	if err := server.VerifyRecovery(rec.Engine, engine, d.logDir(), kappa, seed); err != nil {
		g.failf("recovery identity: %v", err)
	} else {
		d.rep.ByteIdentical = true
	}
	if d.rep.Kills == 0 {
		if err := verifySpans(d.spanLog(), d.logDir()); err != nil {
			g.failf("span log: %v", err)
		}
	}
}

// verifySpans holds a whole-run span log against the event log: exactly one
// span per logged deletion, each span's event index naming its delete line.
// (That a span's rounds and messages are the distributed engine's ledger
// entry is checked where the ledger is visible, in internal/server's tests.)
func verifySpans(spanPath, logDir string) error {
	f, err := os.Open(spanPath)
	if err != nil {
		return err
	}
	spans, err := obs.ReadSpans(f)
	f.Close()
	if err != nil {
		return err
	}
	full, err := trace.LoadFullLog(logDir)
	if err != nil {
		return err
	}
	deletes := 0
	for _, ev := range full.Events {
		if ev.Kind == "delete" {
			deletes++
		}
	}
	if len(spans) != deletes {
		return fmt.Errorf("%d spans for %d logged deletions", len(spans), deletes)
	}
	for i, s := range spans {
		if s.Event < 0 || s.Event >= len(full.Events) {
			return fmt.Errorf("span %d: event index %d outside the log's %d events", i, s.Event, len(full.Events))
		}
		if ev := full.Events[s.Event]; ev.Kind != "delete" || ev.Node != s.Node {
			return fmt.Errorf("span %d says delete %d, log line %d is %s %d", i, s.Node, s.Event, ev.Kind, ev.Node)
		}
	}
	return nil
}
