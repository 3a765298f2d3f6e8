package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/obs"
	"github.com/xheal/xheal/internal/scenario"
	"github.com/xheal/xheal/internal/server"
	"github.com/xheal/xheal/internal/trace"
)

// daemonBin is cmd/xheal-serve, built once for the whole package.
var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "xheal-drill-test-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	daemonBin = filepath.Join(dir, "xheal-serve")
	if out, err := exec.Command("go", "build", "-o", daemonBin, "github.com/xheal/xheal/cmd/xheal-serve").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build xheal-serve: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// drillCLI runs the command with -daemon and -out filled in and returns the
// exit code, the report (nil when none was written) and stderr.
func drillCLI(t *testing.T, args ...string) (int, *report, string) {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir()) // a failing run keeps its data dir: keep it inside the test's
	out := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-daemon", daemonBin, "-out", out}, args...), &stdout, &stderr)
	data, err := os.ReadFile(out)
	if err != nil {
		return code, nil, stderr.String()
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report: %v", err)
	}
	return code, &rep, stderr.String()
}

// A finite scenario over HTTP against a durable child passes every gate on
// both engines, and the report says what was checked.
func TestFiniteScenario(t *testing.T) {
	for name, args := range map[string][]string{
		"seq":  {"-scenario", "flashcrowd", "-events", "96", "-rate", "4000", "--", "-max-batch", "16"},
		"dist": {"-scenario", "readmix", "-events", "64", "-rate", "4000", "--", "-engine", "dist"},
	} {
		t.Run(name, func(t *testing.T) {
			code, rep, stderr := drillCLI(t, args...)
			if code != 0 || rep == nil || !rep.Pass {
				t.Fatalf("exit %d, report %+v\n%s", code, rep, stderr)
			}
			want, _ := scenario.NewStream(rep.Scenario, scenario.Params{})
			if rep.Engine != name || rep.N != want.Params().N || rep.Seed != want.Params().Seed {
				t.Fatalf("report names engine %q n=%d seed=%d", rep.Engine, rep.N, rep.Seed)
			}
			if rep.EventsTotal == 0 || rep.EventsTotal != uint64(rep.Waves*rep.Wave) || rep.Kills != 0 || !rep.ByteIdentical {
				t.Fatalf("events=%d waves=%d kills=%d byte_identical=%v", rep.EventsTotal, rep.Waves, rep.Kills, rep.ByteIdentical)
			}
			if rep.Audits == 0 || rep.TickLatency.Count == 0 || rep.Spans == 0 || rep.FinalNodes == 0 || rep.Env.GoVersion == "" {
				t.Fatalf("report is missing what the gates read: %+v", rep)
			}
			if name == "dist" && (rep.Reads == 0 || rep.RepairLatency == nil || rep.RepairLatency.Count != rep.Spans) {
				t.Fatalf("readmix on dist: %d reads, repair latency %+v for %d spans", rep.Reads, rep.RepairLatency, rep.Spans)
			}
		})
	}
}

// An impossible SLO fails the run and the report names it.
func TestSLOTickBoundFails(t *testing.T) {
	code, rep, stderr := drillCLI(t, "-scenario", "flashcrowd", "-events", "96", "-rate", "4000", "-slo-p99-tick-ms", "0.000001")
	if code != 1 || rep == nil || rep.Pass {
		t.Fatalf("exit %d, report %+v\n%s", code, rep, stderr)
	}
	if len(rep.Failures) != 1 || !strings.Contains(rep.Failures[0], "SLO: p99 tick latency") {
		t.Fatalf("failures = %q, want the p99 tick SLO alone", rep.Failures)
	}
	if !strings.Contains(stderr, "kept data dir") {
		t.Fatalf("a failing run must say where its data dir is:\n%s", stderr)
	}
}

// SIGKILL under in-flight POSTs: every restart recovers exactly what the log
// held while no daemon was alive, within the tail bound, and the run still
// ends byte-identical to its from-genesis replay.
func TestKillEvery(t *testing.T) {
	code, rep, stderr := drillCLI(t, "-scenario", "regionfail", "-events", "1800", "-rate", "1800", "-kill-every", "150ms")
	if code != 0 || rep == nil || !rep.Pass {
		t.Fatalf("exit %d, report %+v\n%s", code, rep, stderr)
	}
	if rep.Kills < 3 || len(rep.Restarts) != rep.Kills {
		t.Fatalf("%d kills, %d restarts recorded; want at least 3\n%s", rep.Kills, len(rep.Restarts), stderr)
	}
	for i, r := range rep.Restarts {
		if r.Recovered != r.Durable || r.Durable < r.Acked || r.Replayed > r.TailBound {
			t.Fatalf("restart %d: %+v", i+1, r)
		}
	}
	if rep.EventsTotal != 1800 || !rep.ByteIdentical {
		t.Fatalf("events=%d byte_identical=%v", rep.EventsTotal, rep.ByteIdentical)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-daemon", daemonBin, "-scenario", "nope"},
		{"-daemon", daemonBin},
		{"-daemon", daemonBin, "-scenario", "flashcrowd", "-clients", "4"},
		{"-daemon", daemonBin, "-scenario", "flashcrowd", "-kill-every", "-1s"},
		{"-daemon", filepath.Join(t.TempDir(), "no-such-daemon"), "-scenario", "flashcrowd"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("%q: exit %d, want 2\n%s", args, code, stderr.String())
		}
	}
}

// reconcile reads a killed wave's fate off the log: what the log holds past
// the settled events is applied, the rest is resent in order, an
// acknowledged event the log lacks is a loss, and an event nobody sent is a
// corrupt log.
func TestReconcile(t *testing.T) {
	ins := func(n graph.NodeID) adversary.Event {
		return adversary.Event{Kind: adversary.Insert, Node: n, Neighbors: []graph.NodeID{0}}
	}
	del := func(n graph.NodeID) adversary.Event { return adversary.Event{Kind: adversary.Delete, Node: n} }
	logOf := func(evs ...adversary.Event) *trace.Trace {
		return trace.FromEvents(graph.New(), evs)
	}
	wave := []adversary.Event{del(3), ins(100), ins(101), del(4)}
	for _, tc := range []struct {
		name  string
		acked int
		log   *trace.Trace
		rest  []adversary.Event
		err   string
	}{
		{name: "nothing reached the log", log: logOf(ins(50)), rest: wave},
		// The daemon logs a tick's insertions before its deletions.
		{name: "insertions logged, deletions not", log: logOf(ins(50), ins(100), ins(101)), rest: []adversary.Event{del(3), del(4)}},
		{name: "all logged, ack lost", log: logOf(ins(50), ins(100), ins(101), del(3), del(4))},
		{name: "acked and logged", acked: 4, log: logOf(ins(50), ins(100), ins(101), del(3), del(4))},
		{name: "acked prefix missing", acked: 1, log: logOf(ins(50), ins(100)), err: "acknowledged loss: delete 3"},
		{name: "log shorter than acks", acked: 2, log: logOf(ins(50), ins(100)), err: "acknowledged loss: 3 events acknowledged, the log holds 2"},
		{name: "log holds a stranger", log: logOf(ins(50), ins(999)), err: "insert 999"},
	} {
		rest, err := reconcile(wave, tc.acked, tc.log, 1)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil || fmt.Sprint(rest) != fmt.Sprint(tc.rest) {
			t.Fatalf("%s: rest = %v, err = %v; want %v", tc.name, rest, err, tc.rest)
		}
	}
}

// Each gate the drill reads off /v1/health trips on the reading that
// violates it, and a healthy reading trips none.
func TestHealthGates(t *testing.T) {
	healthy := func() server.Health {
		h := server.Health{Status: "ok", Connected: true, Live: &server.LiveHealth{Audits: 3}}
		h.Counters.EventsApplied, h.Counters.DeletesApplied, h.Obs.Spans = 40, 9, 9
		h.Obs.TickLatency = obs.LatencySummary{Count: 5, P99MS: 2}
		return h
	}
	for _, tc := range []struct {
		name string
		bend func(*server.Health)
		want string
	}{
		{name: "healthy", bend: func(*server.Health) {}},
		{name: "degraded", bend: func(h *server.Health) { h.Status = "degraded" }, want: "unhealthy mid-run"},
		{name: "disconnected", bend: func(h *server.Health) { h.Connected = false }, want: "unhealthy mid-run"},
		{name: "queue above one wave", bend: func(h *server.Health) { h.QueueDepth = 17 }, want: "queue depth 17 with one wave of 16"},
		{name: "rejected", bend: func(h *server.Health) { h.Counters.EventsRejected = 1 }, want: "1 events rejected"},
		{name: "checkpoint error", bend: func(h *server.Health) { h.Counters.CheckpointErrors = 2 }, want: "2 checkpoint errors"},
		{name: "audit divergence", bend: func(h *server.Health) { h.Live.AuditFailures = 1 }, want: "tracker audit diverged"},
		{name: "no audit", bend: func(h *server.Health) { h.Live.Audits = 0 }, want: "no tracker audit ran"},
		{name: "dropped spans", bend: func(h *server.Health) { h.Obs.SpansDropped = 1 }, want: "1 spans dropped"},
		{name: "span per deletion", bend: func(h *server.Health) { h.Obs.Spans = 8 }, want: "8 repair spans for 9 applied deletions"},
		{name: "p99 tick", bend: func(h *server.Health) { h.Obs.TickLatency.P99MS = 6 }, want: "p99 tick latency 6.000 ms exceeds bound 5.000 ms"},
		{name: "applied count", bend: func(h *server.Health) { h.Counters.EventsApplied = 39 }, want: "39 events applied, the drill settled 40"},
		{name: "undrained queue", bend: func(h *server.Health) { h.QueueDepth = 1 }, want: "queue depth 1 with nothing in flight"},
	} {
		g := gates{queueBound: 16, sloP99TickMS: 5}
		h := healthy()
		tc.bend(&h)
		g.observe(h)
		g.settle(h)
		g.settleFinal(h, 40)
		switch {
		case tc.want == "" && len(g.failures) != 0:
			t.Fatalf("%s: failures %q, want none", tc.name, g.failures)
		case tc.want != "" && (len(g.failures) == 0 || !strings.Contains(strings.Join(g.failures, "\n"), tc.want)):
			t.Fatalf("%s: failures %q, want one naming %q", tc.name, g.failures, tc.want)
		}
	}
}

// The directory checks convict a daemon that lost what it acknowledged or
// cannot prove its state: each tampering below turns a passing run's verify
// into a failure naming the gate.
func TestVerifyConvictsTheDirectory(t *testing.T) {
	st, err := scenario.NewStream("regionfail", scenario.Params{Events: 96, Rate: 4000})
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	d := newDrill(options{daemon: daemonBin, scenario: "regionfail"}, st, t.TempDir(), &stdout, &stderr)
	if rep := d.run(); !rep.Pass {
		t.Fatalf("untampered run failed: %q\n%s", rep.Failures, stderr.String())
	}
	reverify := func() string {
		d.gates.failures = nil
		d.verify()
		return strings.Join(d.gates.failures, "\n")
	}

	d.settled++
	if got := reverify(); !strings.Contains(got, "final recovery found 96 events, the drill settled 97") {
		t.Fatalf("an acknowledged event missing from the directory: %q", got)
	}
	d.settled--

	d.alive[graph.NodeID(1<<40)] = struct{}{}
	if got := reverify(); !strings.Contains(got, "acknowledged loss: node") {
		t.Fatalf("an acknowledged insert missing from the recovered graph: %q", got)
	}
	delete(d.alive, graph.NodeID(1<<40))

	if err := os.WriteFile(d.spanLog(), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := reverify(); !strings.Contains(got, "span log: 0 spans for") {
		t.Fatalf("an empty span log: %q", got)
	}

	// Without the archived prefix the recovered state can no longer be held
	// against a from-genesis replay.
	if err := os.RemoveAll(filepath.Join(d.logDir(), "archive")); err != nil {
		t.Fatal(err)
	}
	if got := reverify(); !strings.Contains(got, "recovery identity:") {
		t.Fatalf("a log without its genesis history: %q", got)
	}
}
