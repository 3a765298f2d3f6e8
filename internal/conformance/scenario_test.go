package conformance

import (
	"fmt"
	"testing"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/scenario"
)

// scenarioParams sizes a conformance leg: full scale matches the scenario
// defaults; -short trims the event count so the per-PR smoke stays
// tick-budgeted while still crossing several wave boundaries.
func scenarioParams() scenario.Params {
	if testing.Short() {
		return scenario.Params{Events: 60}
	}
	return scenario.Params{}
}

// TestScenarioConformance is the per-scenario lockstep leg: every registered
// chaos scenario must drive both engines to identical graphs with all
// invariant, ledger, and Theorem 2/5 envelope checks green — and, because
// scenario events are valid by construction, with nothing skipped.
func TestScenarioConformance(t *testing.T) {
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			comp, res, err := RunScenario(name, scenarioParams(), Options{
				Kappa: 4, Seed: 1, MetricsEvery: 24,
			})
			if err != nil {
				t.Fatalf("scenario %s: %v", name, err)
			}
			if res.Skipped != 0 {
				t.Fatalf("scenario %s: %d events skipped — scenarios must be valid by construction", name, res.Skipped)
			}
			if got, want := res.Inserts+res.Deletions, len(comp.Events); got != want {
				t.Fatalf("scenario %s: applied %d of %d events", name, got, want)
			}
			if res.Deletions == 0 {
				t.Fatalf("scenario %s: no deletions reached the engines", name)
			}
		})
	}
}

// TestScenarioConformanceBatched runs each scenario through the batched
// harness at its native wave size, mirroring how the serving daemon consumes
// waves.
func TestScenarioConformanceBatched(t *testing.T) {
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if _, err := RunScenarioBatched(name, scenarioParams(), Options{Kappa: 4, Seed: 1}); err != nil {
				t.Fatalf("scenario %s: %v", name, err)
			}
		})
	}
}

// TestScenarioShrinkable pins the PR-3 contract on scenario scripts: a
// fault-injected failure inside a compiled scenario shrinks to a small
// replayable trace, like any other schedule.
func TestScenarioShrinkable(t *testing.T) {
	if testing.Short() {
		t.Skip("shrinking is the slow path; covered by the full run")
	}
	comp, err := scenario.Compile(scenario.NameRegionFail, scenario.Params{Events: 72})
	if err != nil {
		t.Fatal(err)
	}
	// Inject a bug keyed to the schedule's midpoint deletion victim, then
	// shrink: the minimal repro is that one deletion plus whatever
	// applicability forces back in — far below the full schedule.
	var victim graph.NodeID
	total := 0
	for _, ev := range comp.Events {
		if ev.Kind == adversary.Delete {
			total++
		}
	}
	deletes := 0
	for _, ev := range comp.Events {
		if ev.Kind == adversary.Delete {
			if deletes++; deletes == total/2 {
				victim = ev.Node
				break
			}
		}
	}
	opts := Options{Kappa: 4, Seed: 1, Fault: func(_ int, ev adversary.Event, _ *graph.Graph) error {
		if ev.Kind == adversary.Delete && ev.Node == victim {
			return fmt.Errorf("injected: delete %d", victim)
		}
		return nil
	}}
	minimal, fail := Shrink(comp.Genesis, comp.Events, opts)
	if fail == nil {
		t.Fatal("injected fault did not fire on the compiled scenario")
	}
	if len(minimal) >= len(comp.Events) {
		t.Fatalf("shrinker made no progress: %d -> %d events", len(comp.Events), len(minimal))
	}
	if len(minimal) > 8 {
		t.Fatalf("scenario trace shrank only to %d events, expected a small repro", len(minimal))
	}
}
