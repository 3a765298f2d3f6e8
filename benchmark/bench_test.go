package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/xheal/xheal/internal/workload"
)

// TestBenchmarkFileNamesWorkloads: BENCHMARK.json and the code name the same
// workloads and the same run length.
func TestBenchmarkFileNamesWorkloads(t *testing.T) {
	data := struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
	}{}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &data); err != nil {
		t.Fatal(err)
	}
	if data.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, the code's reference run length is %d", data.RunSeconds, refSeconds)
	}
	if len(data.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(data.Workloads), len(specs))
	}
	for i, w := range data.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, w.Name, specs[i].name)
		}
	}
}

// TestQuickSmoke runs the benchmark's smoke shape (n = 512, 32+16 POSTs, one
// repeat, both passes) and holds its output to BENCHMARK.json: every
// end-to-end and per-layer name printed for every workload, with its unit and
// a finite value, and nothing else. Without the go tool there is no daemon
// binary, so only the traced in-process half runs.
func TestQuickSmoke(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{} // "kind name" → unit
	for _, m := range bf.EndToEnd {
		want["e2e "+m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want["layer "+m.Name] = m.Unit
	}
	dir := t.TempDir()

	if _, err := exec.LookPath("go"); err != nil {
		t.Log("go tool not on PATH: skipping the child-process half")
		for _, sp := range specs {
			sp = sp.scaled(refSeconds, true)
			g0, err := workload.ByName(sp.genesis, sp.n, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			sched, err := buildSchedule(sp, 1, g0)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := runTraced(sp, 1, sched, g0, filepath.Join(dir, sp.name))
			if err != nil {
				t.Fatalf("%s: traced pass: %v", sp.name, err)
			}
			got := map[string]bool{}
			for _, m := range perLayer(tr, 0, 1, 0, 0) {
				if unit, ok := want["layer "+m.name]; !ok || unit != m.unit || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s: per-layer metric %s = %v %s does not match BENCHMARK.json", sp.name, m.name, m.value, m.unit)
				}
				got[m.name] = true
			}
			if len(got) != len(bf.PerLayer) {
				t.Errorf("%s: %d per-layer metrics, BENCHMARK.json lists %d", sp.name, len(got), len(bf.PerLayer))
			}
		}
		return
	}

	start := time.Now()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-seed", "1", "-dir", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	t.Logf("quick run took %v", time.Since(start))
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	seen := map[string]int{}
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) < 5 || (f[0] != "e2e" && f[0] != "layer") {
			continue
		}
		key := f[0] + " " + f[2]
		unit, listed := want[key]
		v, err := strconv.ParseFloat(f[3], 64)
		switch {
		case !listed:
			t.Errorf("%q is printed but not listed in BENCHMARK.json", line)
		case unit != f[4]:
			t.Errorf("%q: unit %s, BENCHMARK.json says %s", line, f[4], unit)
		case err != nil || math.IsNaN(v) || math.IsInf(v, 0):
			t.Errorf("%q: value is not a finite number", line)
		case f[2] == "bench.count_mismatch" && v != 0:
			t.Errorf("%q: the traced pass drifted from the daemon", line)
		}
		seen[key]++
	}
	for key := range want {
		if seen[key] != len(specs) {
			t.Errorf("%s printed for %d of %d workloads", key, seen[key], len(specs))
		}
	}

	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(specs)*len(want) {
		t.Errorf("result: correct=%v attempted=%d failed=%d metrics=%d, want true, ≥1, 0, %d",
			res.Correct, res.Attempted, res.Failed, len(res.Metrics), len(specs)*len(want))
	}
}

// TestTraceFlagSplitsMetrics: the driver's two invocations report disjoint
// sets — end-to-end metrics untraced, per-layer metrics traced.
func TestTraceFlagSplitsMetrics(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string]int{"0": len(bf.EndToEnd), "1": len(bf.PerLayer)} {
		var stdout, stderr bytes.Buffer
		args := []string{"-quick", "--workload", "churn1-10k", "--seed", "5", "--seconds", "15", "--trace", trace, "-dir", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("--trace %s: exit %d\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res struct{ Metrics map[string]json.RawMessage }
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Metrics) != want {
			t.Errorf("--trace %s: %d metrics, want %d", trace, len(res.Metrics), want)
		}
		for name := range res.Metrics {
			if strings.Contains(name, "/") {
				t.Errorf("--trace %s: metric %q carries a workload prefix", trace, name)
			}
		}
	}
}
