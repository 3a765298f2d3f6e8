package conformance

import (
	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/scenario"
)

// Chaos scenarios are schedules like any other: RunScenario compiles a named
// scenario and drives the compiled script through the same lockstep
// differential harness the adversary×workload matrix uses, so every scenario
// gets graph identity, invariants, local-view consistency, per-repair ledger
// bounds, and the Theorem 2/5 envelopes for free. Scenario events are valid
// by construction (the stream's bookkeeping graph tracks the alive set), so
// the run is strict: a skipped or rejected event is a scenario-generator bug,
// not noise to sanitize away.

// RunScenario compiles the named scenario with p (zero fields take the
// scenario's defaults) and runs it through the per-event lockstep harness.
// The compiled schedule is returned even on failure so callers can shrink or
// archive it; err is a *Failure for conformance violations, or an ordinary
// error for compile/setup problems.
func RunScenario(name string, p scenario.Params, opts Options) (*scenario.Compiled, *Result, error) {
	comp, err := scenario.Compile(name, p)
	if err != nil {
		return nil, nil, err
	}
	res, err := Run(comp.Genesis, adversary.NewScripted(comp.Events...), opts)
	return comp, res, err
}

// RunScenarioBatched compiles the named scenario, chunks the schedule into
// the serving daemon's batched timesteps at the scenario's wave size, and
// runs the batched lockstep harness. This is the conformance leg closest to
// what `xheal-drill -scenario` does against a real daemon.
func RunScenarioBatched(name string, p scenario.Params, opts Options) (*scenario.Compiled, error) {
	comp, err := scenario.Compile(name, p)
	if err != nil {
		return nil, err
	}
	return comp, RunBatched(comp.Genesis, ChunkSchedule(comp.Events, comp.Params.Wave), opts)
}
