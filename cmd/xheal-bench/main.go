// Command xheal-bench regenerates the reproduction tables recorded in
// EXPERIMENTS.md: one experiment per theorem/lemma/corollary of the paper
// plus the motivating star-attack example and the design ablations (see
// docs/ARCHITECTURE.md for the experiment ↔ theorem index). It also replays
// a saved conformance artifact through the lockstep checker, the repro
// command a failing conformance cell prints.
//
// Usage:
//
//	xheal-bench -list                 # show the experiment index
//	xheal-bench -all                  # run everything (E1..E14)
//	xheal-bench -run E3,E9            # run a subset
//	xheal-bench -conf-replay f.json -conf-seed 7 -conf-kappa 4   # conformance repro
//
// Experiments run concurrently on a bounded worker pool; tables are
// rendered to stdout in experiment order regardless of completion order, so
// `xheal-bench -all > EXPERIMENTS.md` is byte-reproducible. Timing lines go
// to stderr (they are the one non-deterministic output). Micro-benchmarks,
// scaling curves, profiles and the conformance matrix run under `go test`
// (see bench_test.go and internal/conformance).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/xheal/xheal/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xheal-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list = fs.Bool("list", false, "list experiments and exit")
		all  = fs.Bool("all", false, "run every experiment")
		only = fs.String("run", "", "comma-separated experiment IDs (e.g. E3,E9)")

		confReplay = fs.String("conf-replay", "", "replay a conformance trace artifact through the lockstep checker instead of running experiments")
		confSeed   = fs.Int64("conf-seed", 1000, "conformance replay: the run seed")
		confKappa  = fs.Int("conf-kappa", 4, "conformance replay: expander degree parameter κ")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *confReplay != "" {
		return replayConformance(stdout, stderr, *confReplay, *confSeed, *confKappa)
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

	var todo []harness.Experiment
	for _, e := range experiments {
		if len(selected) > 0 && !selected[e.ID] {
			continue
		}
		todo = append(todo, e)
	}

	// Run experiments concurrently, render in experiment order: stdout stays
	// byte-identical no matter how the pool schedules.
	type outcome struct {
		table *harness.Table
		dur   time.Duration
		err   error
	}
	results := make([]outcome, len(todo))
	_ = harness.ForEachIndex(len(todo), func(i int) error {
		start := time.Now()
		table, err := todo[i].Run()
		results[i] = outcome{table: table, dur: time.Since(start), err: err}
		return nil // errors are reported per experiment below
	})

	failures := 0
	for i, e := range todo {
		res := results[i]
		if res.err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.ID, res.err)
			failures++
			continue
		}
		res.table.Render(stdout)
		fmt.Fprintf(stderr, "(%s completed in %v)\n", e.ID, res.dur.Round(time.Millisecond))
	}
	if failures > 0 {
		return 1
	}
	return 0
}
