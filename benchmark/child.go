package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/xheal/xheal/internal/server"
)

// startTimeout bounds a daemon start (cold or recovering) to first health.
const startTimeout = 90 * time.Second

// buildDaemon compiles cmd/xheal-serve from the tree into dir.
func buildDaemon(dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "xheal-serve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "github.com/xheal/xheal/cmd/xheal-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build xheal-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// child is one running xheal-serve process.
type child struct {
	cmd    *exec.Cmd
	base   string // http://host:port once listening
	stderr bytes.Buffer

	mu        sync.Mutex
	recovered string // the daemon's "recovered: ..." line
	listening chan string
	scanned   chan struct{}
}

var listenRE = regexp.MustCompile(`^listening on (http://\S+)`)

// startChild runs the daemon durable with every default on: 2 ms tick,
// checkpoint every 32 ticks, refresh every 32, span log on.
func startChild(bin string, sp spec, seed int64, dataDir, spanLog string) (*child, error) {
	c := &child{listening: make(chan string, 1), scanned: make(chan struct{})}
	c.cmd = exec.Command(bin,
		"-addr", "127.0.0.1:0", "-engine", "seq",
		"-workload", sp.genesis, "-n", strconv.Itoa(sp.n), "-seed", strconv.FormatInt(seed, 10),
		"-data-dir", dataDir, "-archive-log", "-spanlog", spanLog)
	c.cmd.Stderr = &c.stderr
	out, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		defer close(c.scanned)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "recovered: ") {
				c.mu.Lock()
				c.recovered = line
				c.mu.Unlock()
			}
			if m := listenRE.FindStringSubmatch(line); m != nil {
				c.listening <- m[1]
			}
		}
	}()
	return c, nil
}

// awaitListening waits for the daemon's listening line.
func (c *child) awaitListening(ctx context.Context) error {
	select {
	case c.base = <-c.listening:
		return nil
	case <-c.scanned:
		return fmt.Errorf("xheal-serve exited before listening: %s", c.stderr.String())
	case <-ctx.Done():
		return fmt.Errorf("xheal-serve did not listen: %w", ctx.Err())
	}
}

// kill SIGKILLs the daemon and waits until it and its output reader ended.
func (c *child) kill() {
	_ = c.cmd.Process.Signal(syscall.SIGKILL)
	<-c.scanned
	_ = c.cmd.Wait() // "signal: killed" is the expected outcome
}

func (c *child) recoveredLine() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recovered
}

// cpuSeconds reads the child's utime+stime from /proc (fields 14 and 15 of
// stat, in USER_HZ = 100 ticks on every Linux ABI Go supports).
func (c *child) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from its ')'.
	rest := data[bytes.LastIndexByte(data, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc stat: %d fields", len(f))
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc stat: utime %q stime %q", f[11], f[12])
	}
	return (utime + stime) / 100, nil
}

// rssPeakMiB reads the child's VmHWM, its peak resident set so far.
func (c *child) rssPeakMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc status: %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc status: no VmHWM")
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// counts are the quantities that repeat exactly from run to run: one writer
// makes one POST one tick, so nothing in them depends on timing.
type counts struct {
	ticks       uint64
	checkpoints uint64
	events      uint64 // acknowledged, warm-up included
	replayed    int    // log-tail events recovery replayed
	diskBytes   int64  // data dir after the window: log + archive + checkpoints
}

// repeat is one fresh daemon's worth of measurements.
type repeat struct {
	win      *window
	setupS   float64
	recoverS float64
	cpuS     float64
	rssMiB   float64
	spinMS   float64
	stolen   float64 // share of the host's CPU time stolen during the window
	counts   counts
}

// hostCPU reads the machine-wide CPU clock from /proc/stat: ticks the
// hypervisor ran something else while a vCPU here was runnable (steal), and
// all ticks.
func hostCPU() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

var recoveredRE = regexp.MustCompile(`^recovered: source=(\S+) events=(\d+) tick=\d+ replayed=(\d+) torn_tail=(\S+)`)

// runChild is one repeat of the child-process pass: spawn on a fresh data
// dir, drive the schedule, SIGKILL, re-spawn on the same dir, and hold the
// daemon to its contracts — every ack durable, health ok, node count equal to
// the generator's bookkeeping.
func runChild(bin string, sp spec, seed int64, s *schedule, dir string) (*repeat, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	dataDir, spanLog := filepath.Join(dir, "data"), filepath.Join(dir, "spans.jsonl")
	r := &repeat{spinMS: hostSpin()}

	ctx, cancel := context.WithTimeout(context.Background(), startTimeout)
	defer cancel()
	probe := newClient()
	defer probe.CloseIdleConnections()

	spawned := time.Now()
	c, err := startChild(bin, sp, seed, dataDir, spanLog)
	if err != nil {
		return nil, err
	}
	killed := false
	defer func() {
		if !killed {
			c.kill()
		}
	}()
	if err := c.awaitListening(ctx); err != nil {
		return nil, err
	}
	if _, err := awaitHealth(ctx, probe, c.base, warmed); err != nil {
		return nil, err
	}
	r.setupS = time.Since(spawned).Seconds()

	var cpu0, cpu1, steal0, total0 float64
	var procErr error
	note := func(err error) {
		if procErr == nil {
			procErr = err
		}
	}
	r.win, err = drive(c.base, s,
		func() {
			var err error
			cpu0, err = c.cpuSeconds()
			note(err)
			steal0, total0 = hostCPU()
		},
		func() {
			var err error
			cpu1, err = c.cpuSeconds()
			note(err)
			if steal1, total1 := hostCPU(); total1 > total0 {
				r.stolen = (steal1 - steal0) / (total1 - total0)
			}
			r.rssMiB, err = c.rssPeakMiB()
			note(err)
		})
	if err != nil {
		return nil, err
	}
	if procErr != nil {
		return nil, procErr
	}
	r.cpuS = cpu1 - cpu0

	h, err := getHealth(probe, c.base)
	if err != nil {
		return nil, err
	}
	if err := checkHealth(h, s); err != nil {
		return nil, err
	}
	r.counts.ticks, r.counts.checkpoints, r.counts.events = h.Counters.Ticks, h.Counters.Checkpoints, h.Counters.EventsApplied

	c.kill()
	killed = true
	if r.counts.diskBytes, err = dirBytes(dataDir); err != nil {
		return nil, err
	}

	// Ack ⇒ durable: the restarted daemon must hold every acknowledged event.
	// A restart of a small daemon takes a fifth of a second, most of it
	// process start-up the host jitters, so it is re-spawned on the same dir
	// (same checkpoint, same tail: nothing was applied in between) until a
	// second of recovery has been measured, at most maxRecoveries times; the
	// repeat reports the median.
	var recoveries []float64
	for measured := 0.0; measured < 1 && len(recoveries) < maxRecoveries; {
		took, replayed, err := recoverOnce(bin, sp, seed, dataDir, spanLog, probe, r.counts.events, s.aliveEnd)
		if err != nil {
			return nil, fmt.Errorf("recovery %d: %w", len(recoveries)+1, err)
		}
		recoveries = append(recoveries, took)
		measured += took
		r.counts.replayed = replayed
	}
	r.recoverS = median(recoveries)
	return r, nil
}

// maxRecoveries bounds the re-spawns one repeat spends on recover_s.
const maxRecoveries = 3

// recoverOnce re-spawns the daemon on a SIGKILLed data dir, times spawn →
// first health 200, checks what it recovered, and kills it again.
func recoverOnce(bin string, sp spec, seed int64, dataDir, spanLog string, probe *http.Client, acked uint64, alive int) (seconds float64, replayed int, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), startTimeout)
	defer cancel()
	spawned := time.Now()
	c, err := startChild(bin, sp, seed, dataDir, spanLog)
	if err != nil {
		return 0, 0, err
	}
	defer c.kill()
	if err := c.awaitListening(ctx); err != nil {
		return 0, 0, err
	}
	h, err := awaitHealth(ctx, probe, c.base, func(server.Health) bool { return true })
	if err != nil {
		return 0, 0, err
	}
	seconds = time.Since(spawned).Seconds()
	m := recoveredRE.FindStringSubmatch(c.recoveredLine())
	if m == nil {
		return 0, 0, fmt.Errorf("restarted daemon printed no recovery line (got %q)", c.recoveredLine())
	}
	if got, _ := strconv.ParseUint(m[2], 10, 64); m[1] != "checkpoint" || got != acked || m[4] != "false" {
		return 0, 0, fmt.Errorf("ack ⇒ durable violated: %d events acknowledged, daemon %s", acked, m[0])
	}
	replayed, _ = strconv.Atoi(m[3])
	if h.Status != "ok" || h.Nodes != alive {
		return 0, 0, fmt.Errorf("recovered daemon: status %q, %d nodes, want ok, %d", h.Status, h.Nodes, alive)
	}
	return seconds, replayed, nil
}

// checkHealth holds the daemon's final health to the generator's
// bookkeeping: every event applied, none rejected or deferred, node count as
// generated, one tick per POST.
func checkHealth(h server.Health, s *schedule) error {
	c := h.Counters
	switch {
	case h.Status != "ok":
		return fmt.Errorf("health: status %q (log_error %q)", h.Status, h.LogError)
	case h.Nodes != s.aliveEnd:
		return fmt.Errorf("health: %d nodes, the generator's bookkeeping says %d", h.Nodes, s.aliveEnd)
	case c.EventsApplied != uint64(s.totalEvents()):
		return fmt.Errorf("health: %d events applied, %d sent", c.EventsApplied, s.totalEvents())
	case c.Ticks != uint64(len(s.bodies)):
		return fmt.Errorf("health: %d ticks for %d POSTs: one POST is no longer one tick", c.Ticks, len(s.bodies))
	case c.EventsRejected+c.EventsDeferred+c.EventsBacklogged+c.EventsNotDurable+c.CheckpointErrors != 0:
		return fmt.Errorf("health: rejected %d, deferred %d, backlogged %d, not durable %d, checkpoint errors %d; want none",
			c.EventsRejected, c.EventsDeferred, c.EventsBacklogged, c.EventsNotDurable, c.CheckpointErrors)
	}
	return nil
}

// spinSink keeps hostSpin's loop from being optimised away.
var spinSink uint64

// hostSpin times a fixed arithmetic loop. It runs before each repeat as a
// reading of how loud the host is at that moment: a diagnostic for a noisy
// comparison, never a normaliser.
func hostSpin() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 40_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return ms(time.Since(t0))
}
