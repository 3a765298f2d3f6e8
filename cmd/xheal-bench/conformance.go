package main

import (
	"fmt"
	"io"
	"os"

	"github.com/xheal/xheal/internal/conformance"
	"github.com/xheal/xheal/internal/trace"
)

// replayConformance re-runs one saved schedule artifact through the full
// lockstep checker — the repro command a failing cell prints. Unlike
// `xheal-sim -replay` (which replays one engine), this reproduces every
// failure kind the matrix can detect: divergence needs both engines side by
// side. Metric checkpoints run on every event, since shrunk schedules are
// short.
func replayConformance(stdout, stderr io.Writer, path string, seed int64, kappa int) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer f.Close()
	tr, err := trace.Load(f)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	adv, err := tr.Adversary()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "replaying %s through the lockstep checker: %d events, seed=%d kappa=%d\n",
		path, len(tr.Events), seed, kappa)
	res, err := conformance.Run(tr.Initial(), adv, conformance.Options{
		Kappa: kappa, Seed: seed, MetricsEvery: 1,
	})
	if err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		fmt.Fprintln(stdout, "conformance: FAIL")
		return 1
	}
	fmt.Fprintf(stdout, "conformance: ok (%d events, %d deletions, %d rounds, %d messages)\n",
		len(res.Events), res.Deletions, res.Totals.Rounds, res.Totals.Messages)
	return 0
}
