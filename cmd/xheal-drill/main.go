// Command xheal-drill is the adversary of the paper's model run against the
// daemon operators run: it starts cmd/xheal-serve as a durable child process
// (-data-dir -archive-log -spanlog), drives a named chaos scenario from
// internal/scenario at it over loopback HTTP, optionally SIGKILLs and
// restarts it while a POST is in flight, and holds it to its contracts using
// only what an operator can see — HTTP verdicts, /v1/health, /metrics, the
// lines the daemon prints at start-up — plus, once the last incarnation has
// exited, the data directory it left behind.
//
// Usage:
//
//	go build -o xheal-serve ./cmd/xheal-serve
//	xheal-drill -daemon ./xheal-serve -scenario flashcrowd                 # finite run of the scenario's event budget
//	xheal-drill -daemon ./xheal-serve -scenario regionfail -kill-every 300ms   # same, SIGKILLed and restarted under load
//	xheal-drill -daemon ./xheal-serve -scenario readmix -minutes 10 -kill-every 20s -out soak.json -- -engine dist
//
// Everything after "--" is passed to the daemon (-engine, -kappa, -tick,
// -audit-every, -max-batch, -verify-recovery, ...); the drill owns -addr,
// -workload, -n, -seed, -data-dir, -archive-log and -spanlog, because the
// daemon must build exactly the genesis graph the scenario stream was
// compiled against and write where the drill will look.
//
// One run: waves of the scenario stream go out as one array POST each (a 503
// resends only the tail the daemon did not take), a poller reads /v1/health
// every 10 ms, and the scenario's own read mix (health and /metrics) follows
// each wave. With -kill-every D a wave is posted and the child SIGKILLed
// under it every D: the drill then reads the log directory — nothing else
// has it open — counts whatever became durable past the last acknowledgement
// as applied, restarts the daemon, demands that its "recovered: events=" line
// equals the log length and that the replayed tail is within what the
// daemon's checkpoint rule allows (the checkpoint_due_at_changes it reported
// plus the opportunity spacing it printed), and resends the rest of the wave.
// The last incarnation is stopped with SIGTERM.
//
// The run fails (exit 1) on: a refused or rejected event; an acknowledged
// event missing from the log or from the final graph; a recovered count that
// differs from the log; a recovery tail beyond its bound; any health reading
// that is not "ok" and connected; tracker audit failures, or no audit at all;
// queue depth above one wave (the drill never has more in flight); dropped
// spans; span and deletion counts that differ; checkpoint errors; p99 tick
// latency above -slo-p99-tick-ms; and, on the quiescent directory,
// server.Recover failing (it checks the structural invariants), the recovered
// graph differing from the acknowledged inserts and deletes, or
// server.VerifyRecovery finding the recovered state not byte-identical to a
// from-genesis replay of the archived log. Runs without kills also hold the
// span log against the event log line by line. On failure the data directory
// and span log are kept and their paths printed; -out writes the report as
// JSON either way. Usage errors exit 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"github.com/xheal/xheal/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed flags; daemonArgs is what followed "--".
type options struct {
	daemon       string
	scenario     string
	params       scenario.Params
	minutes      float64
	killEvery    time.Duration
	sloP99TickMS float64
	out          string
	daemonArgs   []string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xheal-drill", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.daemon, "daemon", "xheal-serve", "path to the xheal-serve binary to drill (go build -o xheal-serve ./cmd/xheal-serve)")
	fs.StringVar(&o.scenario, "scenario", "", "chaos scenario to run (valid: "+strings.Join(scenario.Names(), " ")+")")
	fs.IntVar(&o.params.N, "n", 0, "genesis node count (0 = scenario default)")
	fs.IntVar(&o.params.Events, "events", 0, "events in a finite run (0 = scenario default; ignored with -minutes)")
	fs.Int64Var(&o.params.Seed, "seed", 0, "seed of the genesis graph, the event stream and the daemon's healing decisions (0 = scenario default)")
	fs.IntVar(&o.params.Wave, "wave", 0, "events per wave, one array POST each (0 = scenario default)")
	fs.Float64Var(&o.params.Rate, "rate", 0, "target sustained events/sec (0 = scenario default)")
	fs.Float64Var(&o.minutes, "minutes", 0, "run the unbounded stream for this many minutes instead of a finite event budget")
	fs.DurationVar(&o.killEvery, "kill-every", 0, "SIGKILL the daemon under an in-flight POST this often and restart it on the same data dir (0 = never)")
	fs.Float64Var(&o.sloP99TickMS, "slo-p99-tick-ms", 0, "fail unless every incarnation's p99 tick latency is at most this many ms (0 = no bound)")
	fs.StringVar(&o.out, "out", "", "write the machine-readable pass/fail report to this JSON file")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: xheal-drill -daemon PATH -scenario NAME [flags] [-- daemon flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.daemonArgs = fs.Args()
	st, err := scenario.NewStream(o.scenario, o.params)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if o.daemon, err = exec.LookPath(o.daemon); err != nil {
		fmt.Fprintf(stderr, "-daemon: %v (build it: go build -o xheal-serve ./cmd/xheal-serve)\n", err)
		return 2
	}
	if o.minutes < 0 || o.killEvery < 0 || o.sloP99TickMS < 0 {
		fmt.Fprintln(stderr, "-minutes, -kill-every and -slo-p99-tick-ms must not be negative")
		return 2
	}

	dir, err := os.MkdirTemp("", "xheal-drill-*")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	d := newDrill(o, st, dir, stdout, stderr)
	rep := d.run()
	if o.out != "" {
		if err := writeReport(o.out, rep); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", o.out)
	}
	fmt.Fprintf(stdout, "drill %s: %d events in %d waves (%.0f events/sec), %d reads, %d ticks, %d resends, max queue %d, %d kills\n",
		rep.Scenario, rep.EventsTotal, rep.Waves, rep.EventsPerSec, rep.Reads, rep.Ticks, rep.Resends, rep.MaxQueueDepth, rep.Kills)
	fmt.Fprintf(stdout, "tick latency p50/p95/p99 = %.3f/%.3f/%.3f ms over %d ticks (last incarnation)\n",
		rep.TickLatency.P50MS, rep.TickLatency.P95MS, rep.TickLatency.P99MS, rep.TickLatency.Count)
	if !rep.Pass {
		for _, f := range rep.Failures {
			fmt.Fprintln(stderr, "FAIL:", f)
		}
		fmt.Fprintf(stderr, "drill %s: FAIL (%d violations); kept data dir %s and span log %s\n",
			rep.Scenario, len(rep.Failures), d.dataDir(), d.spanLog())
		return 1
	}
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(stderr, err)
	}
	fmt.Fprintf(stdout, "drill %s: PASS (recovered state byte-identical to a from-genesis replay of %d events)\n", rep.Scenario, rep.EventsTotal)
	return 0
}

func writeReport(path string, rep *report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
