// Command xheal-sim runs a single self-healing scenario with an event trace:
// pick an initial topology, an adversary, and a healer, and watch the
// network heal (the Figure 1 loop of the paper, observable).
//
// Usage:
//
//	xheal-sim -workload star -n 24 -adversary maxdeg -steps 12 -v
//	xheal-sim -workload er -n 64 -adversary churn -steps 100 -healer forgiving-tree
//	xheal-sim -workload regular -n 64 -adversary churn -steps 40 -distributed
//	xheal-sim -workload star -n 24 -record run.json     # save the event trace
//	xheal-sim -replay run.json -healer forgiving-tree   # replay it elsewhere
//	xheal-sim -workload star -n 16 -steps 4 -dot out.dot # paper-colored DOT
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/baseline"
	"github.com/xheal/xheal/internal/dist"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/metrics"
	"github.com/xheal/xheal/internal/trace"
	"github.com/xheal/xheal/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xheal-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl          = fs.String("workload", "star", "initial topology: "+fmt.Sprint(workload.Names()))
		n           = fs.Int("n", 24, "initial node count")
		healer      = fs.String("healer", baseline.NameXheal, "healer: "+fmt.Sprint(baseline.Names()))
		advName     = fs.String("adversary", "churn", "adversary: "+fmt.Sprint(adversary.Names()))
		steps       = fs.Int("steps", 40, "adversarial events")
		kappa       = fs.Int("kappa", 4, "expander degree parameter (even)")
		seed        = fs.Int64("seed", 1, "randomness seed")
		verbose     = fs.Bool("v", false, "print every event")
		distributed = fs.Bool("distributed", false, "run the distributed protocol engine (xheal only)")
		record      = fs.String("record", "", "save the event trace to this JSON file")
		replay      = fs.String("replay", "", "replay a recorded trace instead of generating events")
		dotOut      = fs.String("dot", "", "write the final healed graph as Graphviz DOT (paper colors; xheal only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var (
		g0  *graph.Graph
		adv adversary.Adversary
		err error
	)
	if *replay != "" {
		g0, adv, err = loadTrace(stdout, *replay)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	} else {
		g0, err = workload.ByName(*wl, *n, rand.New(rand.NewSource(*seed)))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		adv, err = adversary.ByName(*advName, *steps, *seed)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	var rec *trace.Trace
	if *record != "" {
		rec = trace.New(g0)
		adv = &trace.Recording{Inner: adv, Trace: rec}
	}
	fmt.Fprintf(stdout, "initial: %s n=%d m=%d | healer=%s adversary=%s steps=%d kappa=%d seed=%d\n",
		*wl, g0.NumNodes(), g0.NumEdges(), *healer, *advName, *steps, *kappa, *seed)

	code := 0
	if *distributed {
		code = runDistributed(stdout, stderr, g0, adv, *kappa, *seed, *verbose)
	} else {
		code = runSequential(stdout, stderr, g0, adv, *healer, *kappa, *seed, *verbose, *dotOut)
	}
	if code == 0 && rec != nil {
		if err := saveTrace(*record, rec); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "trace recorded to %s (%d events)\n", *record, len(rec.Events))
	}
	return code
}

func loadTrace(stdout io.Writer, path string) (*graph.Graph, adversary.Adversary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	tr, err := trace.Load(f)
	if err != nil {
		return nil, nil, err
	}
	adv, err := tr.Adversary()
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(stdout, "replaying %s: %d events\n", path, len(tr.Events))
	return tr.Initial(), adv, nil
}

func saveTrace(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runSequential(stdout, stderr io.Writer, g0 *graph.Graph, adv adversary.Adversary, healer string, kappa int, seed int64, verbose bool, dotOut string) int {
	h, err := baseline.New(healer, g0, kappa, seed)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	gp := g0.Clone() // G' tracker: insertions only
	step := 0
	for {
		ev, ok := adv.Next(h.Graph())
		if !ok {
			break
		}
		step++
		switch ev.Kind {
		case adversary.Insert:
			gp.EnsureNode(ev.Node)
			for _, w := range ev.Neighbors {
				gp.EnsureEdge(ev.Node, w)
			}
			err = h.Insert(ev.Node, ev.Neighbors)
		case adversary.Delete:
			err = h.Delete(ev.Node)
		}
		if err != nil {
			fmt.Fprintf(stderr, "step %d: %v\n", step, err)
			return 1
		}
		if verbose {
			g := h.Graph()
			fmt.Fprintf(stdout, "step %3d: %-6s node %-7d -> n=%d m=%d connected=%v\n",
				step, ev.Kind, ev.Node, g.NumNodes(), g.NumEdges(), g.IsConnected())
		}
	}
	printFinal(stdout, h.Graph(), gp, step)
	if xh, ok := h.(*baseline.Xheal); ok {
		st := xh.State().Stats()
		fmt.Fprintf(stdout, "healing work: +%d/-%d edges, %d primary clouds, %d secondary, %d combines, %d shares\n",
			st.HealEdgesAdded, st.HealEdgesRemoved, st.PrimaryClouds, st.SecondaryClouds, st.Combines, st.Shares)
		if err := xh.State().CheckInvariants(); err != nil {
			fmt.Fprintf(stderr, "INVARIANT VIOLATION: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "invariants: ok")
		if dotOut != "" {
			f, err := os.Create(dotOut)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			if err := xh.State().WriteDOT(f); err != nil {
				f.Close()
				fmt.Fprintln(stderr, err)
				return 1
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintf(stdout, "healed graph written to %s (black=original, red=primary, orange=secondary)\n", dotOut)
		}
	}
	return 0
}

func runDistributed(stdout, stderr io.Writer, g0 *graph.Graph, adv adversary.Adversary, kappa int, seed int64, verbose bool) int {
	e, err := dist.NewEngine(dist.Config{Kappa: kappa, Seed: seed}, g0)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	step := 0
	for {
		ev, ok := adv.Next(e.Graph())
		if !ok {
			break
		}
		step++
		switch ev.Kind {
		case adversary.Insert:
			err = e.Insert(ev.Node, ev.Neighbors)
		case adversary.Delete:
			err = e.Delete(ev.Node)
		}
		if err != nil {
			fmt.Fprintf(stderr, "step %d: %v\n", step, err)
			return 1
		}
		if verbose && ev.Kind == adversary.Delete {
			costs := e.Costs()
			c := costs[len(costs)-1]
			fmt.Fprintf(stdout, "step %3d: delete node %-7d -> rounds=%d messages=%d (deg_G'=%d)\n",
				step, ev.Node, c.Rounds, c.Messages, c.BlackDegree)
		}
	}
	printFinal(stdout, e.Graph(), e.State().Baseline(), step)
	t := e.Totals()
	fmt.Fprintf(stdout, "protocol: %d deletions, %d rounds, %d messages (A(p)=%.1f, amortized %.1f msg/deletion)\n",
		t.Deletions, t.Rounds, t.Messages, e.AmortizedLowerBound(),
		float64(t.Messages)/float64(max(1, t.Deletions)))
	if err := e.ValidateLocalViews(); err != nil {
		fmt.Fprintf(stderr, "LOCAL VIEW DIVERGENCE: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "local views: consistent with healed graph")
	return 0
}

func printFinal(stdout io.Writer, g, gp *graph.Graph, steps int) {
	// The summary prints sweep-cut witnesses on large graphs, so opt into
	// their (expensive, eigenvector-carrying) computation here.
	snap := metrics.Measure(g, gp, metrics.Config{StretchSources: 8, SweepCuts: true})
	fmt.Fprintf(stdout, "after %d events: n=%d m=%d connected=%v maxdeg=%d lambda2=%.4f\n",
		steps, snap.Nodes, snap.Edges, snap.Connected, snap.MaxDegree, snap.Lambda2)
	if snap.ExpansionExact != metrics.Unavailable {
		fmt.Fprintf(stdout, "exact: h=%.4f phi=%.4f\n", snap.ExpansionExact, snap.ConductanceExact)
	} else {
		fmt.Fprintf(stdout, "sweep-cut bounds: h<=%.4f phi<=%.4f (phi>=%.4f by Cheeger)\n",
			snap.SweepExpansion, snap.SweepConductance, snap.Lambda2Norm/2)
	}
}
