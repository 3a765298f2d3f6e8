// Command benchmark is the repository's benchmark: it builds cmd/xheal-serve
// from the tree, runs it as a child process in durable mode with every
// default on, drives it over loopback HTTP with one closed-loop writer and
// one open-loop health poller, and reports what a client of the daemon sees
// (the end-to-end metrics). A second, traced pass assembles the same stack
// in-process with timing decorators between the server and each layer and
// reports where the window's time went (the per-layer metrics). See
// README.md for the metric and workload definitions.
//
// Usage, from the repository root:
//
//	go run ./benchmark -seed 1                                  # every workload, both passes
//	go run ./benchmark --workload churn64-10k --seed 3 --seconds 10 --trace 0
//	go run ./benchmark -agree 5                                 # same-code agreement table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	agree    int
	quick    bool
	dir      string
}

// fullRepeats is how many fresh daemons each workload is measured on: rates,
// CPU, memory, set-up and recovery report the median of them, percentiles
// are taken over their pooled samples.
const fullRepeats = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all of "+strings.Join(specNames(), " ")+")")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the genesis topology, the healing decisions and the write schedule")
	fs.IntVar(&o.seconds, "seconds", refSeconds, fmt.Sprintf("run length: measured POSTs per repeat scale with seconds/%d (a given value always sends the same counts)", refSeconds))
	fs.IntVar(&o.trace, "trace", -1, "0: child-process pass, end-to-end metrics; 1: one child repeat plus the traced in-process pass, per-layer metrics; -1: both in full")
	fs.IntVar(&o.agree, "agree", 0, "run the child-process pass 2×K times as alternating sets A and B and check that they agree within BENCHMARK.json's bounds")
	fs.BoolVar(&o.quick, "quick", false, "smoke shape: n = 512, 32+16 POSTs, one repeat")
	fs.StringVar(&o.dir, "dir", ".bench_build", "scratch directory for the daemon binary and data dirs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds < 1 || o.trace < -1 || o.trace > 1 {
		fmt.Fprintln(stderr, "benchmark: bad arguments (see -h)")
		return 2
	}
	chosen := specs
	if o.workload != "" {
		sp, ok := specByName(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (valid: %s)\n", o.workload, strings.Join(specNames(), " "))
			return 2
		}
		chosen = []spec{sp}
	}

	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printEnv(stdout, o.dir)
	bin, err := buildDaemon(o.dir)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if o.agree > 0 {
		return runAgree(o, bin, chosen, stdout, stderr)
	}

	total := &outcome{metrics: map[string]metricValue{}}
	for _, sp := range chosen {
		out, err := runWorkload(o, bin, sp, o.seed, stdout)
		if err != nil {
			// The correctness gate: no metrics for a run that broke a contract.
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", sp.name, err)
			return 1
		}
		total.merge(out, len(chosen) > 1)
	}
	line, err := json.Marshal(total.result())
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func specNames() []string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return names
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload (or, merged, one invocation) reports.
type outcome struct {
	workload  string
	attempted int
	failed    int
	metrics   map[string]metricValue
	counts    counts
}

func (t *outcome) merge(o *outcome, prefix bool) {
	t.attempted += o.attempted
	t.failed += o.failed
	for name, v := range o.metrics {
		if prefix {
			name = o.workload + "/" + name
		}
		t.metrics[name] = v
	}
}

// result is the line the driver reads.
func (t *outcome) result() any {
	return struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{t.failed == 0, t.attempted, t.failed, t.metrics}
}

// input is everything generated from one seed before a daemon starts.
type input struct {
	seed     int64
	g0       *graph.Graph
	sched    *schedule
	genesisS float64
}

// prepare builds the genesis graph the daemon will build from the same seed
// and generates and JSON-encodes the schedule — before any daemon starts: the
// scenario compile takes seconds and must sit in neither set-up nor a window.
func prepare(sp spec, seed int64) (*input, error) {
	t0 := time.Now()
	g0, err := workload.ByName(sp.genesis, sp.n, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	in := &input{seed: seed, g0: g0, genesisS: time.Since(t0).Seconds()}
	in.sched, err = buildSchedule(sp, seed, g0)
	return in, err
}

// runWorkload measures one workload. Every repeat gets a fresh daemon and
// data dir, and its own seed derived from the run's: runs are compared
// across seeds, and a median over three schedules moves less from seed to
// seed than any one schedule does (regionfail's wounds, and with them its
// rates, tails and recovery time, differ by a fifth between seeds).
func runWorkload(o options, bin string, sp spec, seed int64, stdout io.Writer) (*outcome, error) {
	sp = sp.scaled(o.seconds, o.quick)
	repeats := fullRepeats
	if o.quick || o.trace == 1 {
		repeats = 1
	}
	inputs := make([]*input, repeats)
	for i := range inputs {
		var err error
		if inputs[i], err = prepare(sp, seed*fullRepeats+int64(i)); err != nil {
			return nil, err
		}
		if i > 0 {
			// Only the traced pass needs a genesis graph, and it replays
			// repeat 0: do not hold 10⁵-node graphs through the windows.
			inputs[i].g0 = nil
		}
	}
	first := inputs[0]
	fmt.Fprintf(stdout, "workload %s seed=%d genesis=%s n=%d posts=%d+%d array=%d events=%d repeats=%d\n",
		sp.name, seed, sp.genesis, first.g0.NumNodes(), warmupPosts, sp.posts, sp.array, first.sched.totalEvents(), repeats)

	runDir := filepath.Join(o.dir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(runDir)
	out := &outcome{workload: sp.name, metrics: map[string]metricValue{}}
	reps := make([]*repeat, repeats)
	for i, in := range inputs {
		r, err := runChild(bin, sp, in.seed, in.sched, filepath.Join(runDir, fmt.Sprintf("%s-r%d", sp.name, i)))
		if err != nil {
			return nil, fmt.Errorf("repeat %d (seed %d): %w", i+1, in.seed, err)
		}
		reps[i] = r
		fmt.Fprintf(stdout, "repeat %s %d seed=%d window_s=%.3f events_per_s=%.1f host_spin_ms=%.1f host_stolen=%.2f%%\n",
			sp.name, i+1, in.seed, r.win.wallS, float64(r.win.events)/r.win.wallS, r.spinMS, 100*r.stolen)
		out.attempted += r.win.attempted()
		out.failed += r.win.failed
		if r.win.firstErr != nil {
			fmt.Fprintf(stdout, "failure %s repeat %d: %v\n", sp.name, i+1, r.win.firstErr)
		}
	}
	out.counts = reps[0].counts
	e2e := endToEnd(sp, reps, stdout)
	if o.trace != 1 {
		for _, m := range e2e {
			out.metrics[m.name] = metricValue{m.value, m.unit}
		}
	}
	c := out.counts
	fmt.Fprintf(stdout, "count %s ticks=%d checkpoints=%d events=%d replayed=%d disk_bytes=%d\n",
		sp.name, c.ticks, c.checkpoints, c.events, c.replayed, c.diskBytes)

	if o.trace != 0 {
		tr, err := runTraced(sp, first.seed, first.sched, first.g0, filepath.Join(runDir, sp.name+"-traced"))
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		out.attempted += tr.win.attempted()
		out.failed += tr.win.failed
		if tr.counts != c {
			return nil, fmt.Errorf("traced pass counts %+v differ from the child pass's %+v: the in-process assembly drifted from cmd/xheal-serve",
				tr.counts, c)
		}
		var spins, stolen []float64
		for _, r := range reps {
			spins = append(spins, r.spinMS)
			stolen = append(stolen, 100*r.stolen)
		}
		// Tracing overhead is like for like: the child repeat on the same seed.
		childRate := float64(reps[0].win.events) / reps[0].win.wallS
		for _, m := range perLayer(tr, first.genesisS, childRate, median(spins), median(stolen)) {
			fmt.Fprintf(stdout, "layer %s %s %s %s\n", sp.name, m.name, formatValue(m.value), m.unit)
			out.metrics[m.name] = metricValue{m.value, m.unit}
		}
		if err := writeSpans(filepath.Join(o.dir, "spans-"+sp.name+".jsonl"), tr.spans); err != nil {
			return nil, err
		}
	}
	for name, v := range out.metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return out, nil
}

// metric is one named number with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// endToEnd reduces the repeats to the nine end-to-end metrics and prints
// them with the per-repeat values behind each. Rates, CPU, memory, set-up,
// recovery and disk are the median over the repeats; latency percentiles are
// taken over the repeats' samples pooled (≥ 1000 acks, so p99 has ≥ 10
// samples beyond it).
//
// The health tail is p95, not p99: polls are timed from when they were due,
// so one stall the host imposes delays every poll queued behind it, and a
// single 100 ms hiccup in one repeat owns the top 1% of ~1000 polls. The top
// 5% takes a second of accumulated stall to move. p99 is still reported, with
// the per-layer metrics.
func endToEnd(sp spec, reps []*repeat, stdout io.Writer) []metric {
	var acks, polls []float64
	for _, r := range reps {
		acks = append(acks, r.win.ackMS...)
		polls = append(polls, r.win.healthMS...)
	}
	defs := []struct {
		name, unit string
		of         func(*repeat) float64 // the repeat's own value
		pooled     func() float64        // nil: median over the repeats
	}{
		{"setup_s", "s", func(r *repeat) float64 { return r.setupS }, nil},
		{"events_per_s", "1/s", func(r *repeat) float64 { return float64(r.win.events) / r.win.wallS }, nil},
		{"ack_p50_ms", "ms", func(r *repeat) float64 { return percentile(r.win.ackMS, 50) }, func() float64 { return percentile(acks, 50) }},
		{"ack_p99_ms", "ms", func(r *repeat) float64 { return percentile(r.win.ackMS, 99) }, func() float64 { return percentile(acks, 99) }},
		{"health_p95_ms", "ms", func(r *repeat) float64 { return percentile(r.win.healthMS, 95) }, func() float64 { return percentile(polls, 95) }},
		{"recover_s", "s", func(r *repeat) float64 { return r.recoverS }, nil},
		{"cpu_s_per_kevent", "s", func(r *repeat) float64 { return r.cpuS / float64(r.win.events) * 1000 }, nil},
		{"rss_peak_mib", "MiB", func(r *repeat) float64 { return r.rssMiB }, nil},
		{"disk_bytes_per_event", "B", func(r *repeat) float64 { return float64(r.counts.diskBytes) / float64(r.counts.events) }, nil},
	}
	ms := make([]metric, len(defs))
	for i, d := range defs {
		per := make([]float64, len(reps))
		for j, r := range reps {
			per[j] = d.of(r)
		}
		ms[i] = metric{d.name, median(per), d.unit}
		if d.pooled != nil {
			ms[i].value = d.pooled()
		}
		fmt.Fprintf(stdout, "e2e %s %s %s %s  repeats=%s acks=%d polls=%d\n",
			sp.name, d.name, formatValue(ms[i].value), d.unit, formatValues(per), len(acks), len(polls))
	}
	return ms
}

// perLayer turns the traced pass into the per-layer metrics. Each busy_s is
// self time inside the window and each count is work a measured POST caused;
// server.self_s is the window wall minus every decorated span, so the parts
// sum to the whole by construction.
func perLayer(tr *traced, genesisS, childRate, spinMS, stolenPct float64) []metric {
	L := tr.layers
	w := tr.win
	events := float64(w.events)
	ticks := float64(len(w.ackMS))
	c := tr.health.Counters
	busy := 0.0
	for _, st := range L {
		busy += st.selfS
	}
	stall := L[lySnapshot].selfS + L[lySave].selfS + L[lyRotate].selfS + L[lyCompact].selfS
	lv := tr.health.Live
	return []metric{
		{"server.self_s", w.wallS - busy, "s"},
		{"server.ticks", ticks, "count"},
		{"server.events_per_tick", events / ticks, "count"},
		{"server.events_deferred", float64(c.EventsDeferred), "count"},
		{"server.events_rejected", float64(c.EventsRejected), "count"},

		{"core.apply.count", float64(L[lyApply].count), "count"},
		{"core.apply.busy_s", L[lyApply].selfS, "s"},
		{"core.apply.p50_ms", percentile(L[lyApply].durMS, 50), "ms"},
		{"core.apply.p99_ms", percentile(L[lyApply].durMS, 99), "ms"},
		{"core.apply.us_per_event", L[lyApply].selfS / events * 1e6, "us"},

		{"core.snapshot.count", float64(L[lySnapshot].count), "count"},
		{"core.snapshot.busy_s", L[lySnapshot].selfS, "s"},
		{"core.snapshot.mib_last", float64(tr.snapLastBytes) / (1 << 20), "MiB"},
		{"checkpoint.save.count", float64(L[lySave].count), "count"},
		{"checkpoint.save.busy_s", L[lySave].selfS, "s"},
		{"checkpoint.save.p99_ms", percentile(L[lySave].durMS, 99), "ms"},
		{"checkpoint.bytes_per_event", float64(tr.checkpointBytes) / events, "B"},
		{"trace.rotate.busy_s", L[lyRotate].selfS, "s"},
		{"trace.compact.busy_s", L[lyCompact].selfS, "s"},
		{"checkpoint.stall_s", stall, "s"},
		{"checkpoint.stall_p99_ms", percentile(tr.stalls, 99), "ms"},

		{"trace.append.count", float64(L[lyAppend].count), "count"},
		{"trace.append.busy_s", L[lyAppend].selfS, "s"},
		{"trace.fsync.count", float64(L[lyFsync].count), "count"},
		{"trace.fsync.busy_s", L[lyFsync].selfS, "s"},
		{"trace.fsync.p99_ms", percentile(L[lyFsync].durMS, 99), "ms"},
		{"trace.log_bytes_per_event", float64(tr.logBytes) / float64(tr.counts.events), "B"},

		{"spectral.csr_build_ms", tr.csrMS, "ms"},
		{"core.invariants_sampled_ms", tr.sampledMS, "ms"},
		{"core.invariants_full_ms", tr.fullMS, "ms"},
		{"live.lambda2_refreshes", float64(lv.Lambda2Refreshes), "count"},
		{"live.lambda2_refresh_last_s", lv.Lambda2RefreshSeconds, "s"},
		{"live.lambda2_age_ticks_end", float64(lv.Lambda2AgeTicks), "ticks"},
		{"live.stretch_age_ticks_end", float64(lv.StretchAgeTicks), "ticks"},

		{"workload.genesis_s", genesisS, "s"},
		{"core.new_state_s", tr.newStateS, "s"},
		{"trace.open_s", tr.openS, "s"},
		{"checkpoint.load_s", tr.loadS, "s"},
		{"server.recover_s", tr.recoverS, "s"},
		{"server.recover_replayed", float64(tr.counts.replayed), "count"},

		{"obs.spans", float64(tr.health.Obs.Spans), "count"},
		{"obs.spans_dropped", float64(tr.health.Obs.SpansDropped), "count"},
		{"obs.spanlog.busy_s", L[lySpanlog].selfS, "s"},
		{"obs.spanlog_bytes_per_event", float64(tr.spanlogBytes) / float64(tr.counts.events), "B"},

		{"client.post.count", ticks, "count"},
		{"client.post.busy_s", sum(w.ackMS) / 1000, "s"},
		{"client.health.count", float64(len(w.healthMS)), "count"},
		{"client.health_p99_ms", percentile(w.healthMS, 99), "ms"},
		{"client.gen_lag_ms_p99", percentile(w.genLagMS, 99), "ms"},
		{"bench.tracing_overhead", events / w.wallS / childRate, "ratio"},
		{"bench.host_spin_ms", spinMS, "ms"},
		{"bench.host_stolen_pct", stolenPct, "%"},
		// A traced pass whose counts differ from the child pass's never gets
		// here: it exits non-zero.
		{"bench.count_mismatch", 0, "count"},
	}
}

// formatValue prints a measurement with all the digits it was measured to.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

func formatValues(xs []float64) string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = formatValue(x)
	}
	return "[" + strings.Join(out, " ") + "]"
}

// printEnv records what every run's numbers depend on. The filesystem type
// matters most: fsync on tmpfs is free, and that must be visible.
func printEnv(w io.Writer, dir string) {
	fsType := "unknown"
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err == nil {
		magic := uint32(st.Type)
		if name, ok := fsNames[magic]; ok {
			fsType = name
		} else {
			fsType = fmt.Sprintf("0x%x", magic)
		}
	}
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(data))
	}
	fmt.Fprintf(w, "env go=%s os=%s/%s nproc=%d gomaxprocs=%d data_dir_fs=%s kernel=%s cpu=%q\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), fsType, kernel, cpu)
}

// fsNames maps statfs magic numbers to names.
var fsNames = map[uint32]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
}
