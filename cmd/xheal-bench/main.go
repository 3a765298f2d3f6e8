// Command xheal-bench regenerates the reproduction tables recorded in
// EXPERIMENTS.md: one experiment per theorem/lemma/corollary of the paper
// plus the motivating star-attack example and the design ablations (see
// docs/ARCHITECTURE.md for the experiment ↔ theorem index).
//
// Usage:
//
//	xheal-bench -list                 # show the experiment index
//	xheal-bench -all                  # run everything (E1..E14)
//	xheal-bench -run E3,E9            # run a subset
//	xheal-bench -all -benchjson out.json   # also record wall times + micro benches
//	xheal-bench -all -cpuprofile cpu.prof  # hot-path investigation
//	xheal-bench -conformance               # lockstep centralized-vs-distributed soak
//
// Experiments run concurrently on a bounded worker pool; tables are
// rendered to stdout in experiment order regardless of completion order, so
// `xheal-bench -all > EXPERIMENTS.md` is byte-reproducible. Timing lines go
// to stderr (they are the one non-deterministic output).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/xheal/xheal/internal/harness"
	"github.com/xheal/xheal/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xheal-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list       = fs.Bool("list", false, "list experiments and exit")
		all        = fs.Bool("all", false, "run every experiment")
		only       = fs.String("run", "", "comma-separated experiment IDs (e.g. E3,E9)")
		benchJSON  = fs.String("benchjson", "", "write per-experiment wall times and micro-benchmarks to this JSON file")
		micro      = fs.Bool("micro", true, "include the core micro-benchmarks in the -benchjson output")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file (taken at exit)")

		parScaling = fs.String("parallel-scaling", "", "measure ApplyBatchParallel throughput at GOMAXPROCS 1/2/4/8 and write the curve to this JSON file (see docs/bench-history/BENCH_PR8.json)")

		conf       = fs.Bool("conformance", false, "run the lockstep centralized-vs-distributed conformance matrix instead of experiments")
		confN      = fs.Int("conf-n", 64, "conformance: initial topology size per cell")
		confSteps  = fs.Int("conf-steps", 34, "conformance: adversarial events per cell")
		confSeed   = fs.Int64("conf-seed", 1000, "conformance: base seed (each cell derives its own; with -conf-replay, the exact run seed)")
		confKappa  = fs.Int("conf-kappa", 4, "conformance: expander degree parameter κ")
		confReplay = fs.String("conf-replay", "", "conformance: replay a trace artifact through the lockstep checker instead of the matrix")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *parScaling != "" {
		return runParallelScaling(stderr, *parScaling)
	}
	if *confReplay != "" {
		return replayConformance(stdout, stderr, *confReplay, *confSeed, *confKappa)
	}
	if *conf {
		return runConformance(stdout, stderr, *confN, *confSteps, *confSeed, *confKappa)
	}

	experiments := harness.All()
	if *list {
		for _, e := range experiments {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Name)
		}
		return 0
	}

	known := map[string]bool{}
	for _, e := range experiments {
		known[e.ID] = true
	}
	selected := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if id == "" {
				continue
			}
			if !known[id] {
				fmt.Fprintf(stderr, "unknown experiment %q (see -list)\n", id)
				return 2
			}
			selected[id] = true
		}
		if len(selected) == 0 {
			fmt.Fprintln(stderr, "-run selected no experiments (see -list)")
			return 2
		}
	} else if !*all {
		fs.Usage()
		fmt.Fprintln(stderr, "\nspecify -all, -run <ids>, or -list")
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}

	var todo []harness.Experiment
	for _, e := range experiments {
		if len(selected) > 0 && !selected[e.ID] {
			continue
		}
		todo = append(todo, e)
	}

	// Run experiments concurrently, render in experiment order: stdout stays
	// byte-identical no matter how the pool schedules. When wall times are
	// being recorded (-benchjson), run them one at a time instead — a timing
	// taken while other experiments compete for cores measures contention,
	// not experiment cost, and the recorded trajectory must stay
	// comparable across machines.
	type outcome struct {
		table *harness.Table
		dur   time.Duration
		err   error
	}
	results := make([]outcome, len(todo))
	runOne := func(i int) error {
		start := time.Now()
		table, err := todo[i].Run()
		results[i] = outcome{table: table, dur: time.Since(start), err: err}
		return nil // errors are reported per experiment below
	}
	if *benchJSON != "" {
		for i := range todo {
			_ = runOne(i)
		}
	} else {
		_ = harness.ForEachIndex(len(todo), runOne)
	}

	failures := 0
	report := benchReport{GoMaxProcs: runtime.GOMAXPROCS(0), Env: obs.CaptureEnv()}
	for i, e := range todo {
		res := results[i]
		if res.err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.ID, res.err)
			failures++
			continue
		}
		res.table.Render(stdout)
		fmt.Fprintf(stderr, "(%s completed in %v)\n", e.ID, res.dur.Round(time.Millisecond))
		report.Experiments = append(report.Experiments, experimentTiming{
			ID:     e.ID,
			WallMS: float64(res.dur.Microseconds()) / 1000,
		})
	}
	if failures > 0 {
		return 1
	}

	if *benchJSON != "" {
		if *micro {
			fmt.Fprintln(stderr, "running micro-benchmarks...")
			report.Micro = runMicroBenches()
		}
		if err := writeJSON(*benchJSON, report); err != nil {
			fmt.Fprintf(stderr, "benchjson: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote %s\n", *benchJSON)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(stderr, "memprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "memprofile: %v\n", err)
			return 1
		}
	}
	return 0
}

// benchReport is the schema of the -benchjson output (see
// docs/bench-history/BENCH_PR2.json).
// GoMaxProcs predates the Env block and stays for series continuity.
type benchReport struct {
	GoMaxProcs  int                `json:"go_max_procs"`
	Env         obs.Env            `json:"env"`
	Experiments []experimentTiming `json:"experiments"`
	Micro       []microResult      `json:"micro"`
}

type experimentTiming struct {
	ID     string  `json:"id"`
	WallMS float64 `json:"wall_ms"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
