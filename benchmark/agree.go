package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the agreement check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// runAgree is the benchmark judging itself the way the driver judges it: the
// child-process pass runs 2×K times per workload on the same code, as sets A
// and B taken alternately, run i of either set at seed+i. For every
// (end-to-end metric, workload) it prints both medians, each set's quartile
// spread, the spread of all 2×K runs and the relative difference, and passes
// only if the two medians and the spread of all runs stay within the metric's
// bound in BENCHMARK.json. (The driver takes its spread over ten runs; the
// quartiles of a set of five sit next to its extremes, so one loud minute on
// the host would decide them.) Counts must be identical wherever the seed is.
func runAgree(o options, bin string, chosen []spec, stdout, stderr io.Writer) int {
	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	o.trace = 0
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	same := map[key]counts{} // (workload, seed) → counts that must repeat exactly
	for i := 0; i < o.agree; i++ {
		for set := 0; set < 2; set++ {
			// Alternate which set goes first, so drift over the session
			// falls on both alike.
			set := (set + i) % 2
			for _, sp := range chosen {
				seed := o.seed + int64(i)
				out, err := runWorkload(o, bin, sp, seed, io.Discard)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %s: %v\n", sp.name, err)
					return 1
				}
				if out.failed > 0 {
					fmt.Fprintf(stderr, "benchmark: %s: %d of %d requests failed\n", sp.name, out.failed, out.attempted)
					return 1
				}
				for name, v := range out.metrics {
					k := key{sp.name, name}
					sets[set][k] = append(sets[set][k], v.Value)
				}
				// Everything but the bytes on disk is independent of the seed
				// too, so it must be identical across all 2×K runs.
				unseeded := out.counts
				unseeded.diskBytes = 0
				for ck, c := range map[key]counts{{sp.name, fmt.Sprint(seed)}: out.counts, {sp.name, "any"}: unseeded} {
					if prev, seen := same[ck]; seen && prev != c {
						fmt.Fprintf(stderr, "benchmark: %s seed %s: counts %+v and %+v differ between two runs of the same code\n",
							sp.name, ck.metric, prev, c)
						return 1
					}
					same[ck] = c
				}
				fmt.Fprintf(stdout, "run %s set=%c i=%d seed=%d ticks=%d checkpoints=%d events=%d replayed=%d disk_bytes=%d\n",
					sp.name, 'A'+set, i, seed, out.counts.ticks, out.counts.checkpoints, out.counts.events, out.counts.replayed, out.counts.diskBytes)
			}
		}
	}

	for _, sp := range chosen {
		for _, m := range bf.EndToEnd {
			k := key{sp.name, m.Name}
			fmt.Fprintf(stdout, "values %s %s A=%s B=%s\n", sp.name, m.Name, formatValues(sets[0][k]), formatValues(sets[1][k]))
		}
	}
	fmt.Fprintf(stdout, "\n| workload | metric | unit | median A | median B | spread A | spread B | spread A∪B | B vs A (worse +) | bound | |\n")
	fmt.Fprintf(stdout, "|---|---|---|---:|---:|---:|---:|---:|---:|---:|---|\n")
	pass := true
	for _, sp := range chosen {
		for _, m := range bf.EndToEnd {
			k := key{sp.name, m.Name}
			a, b := sets[0][k], sets[1][k]
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(stderr, "benchmark: %s: metric %s in BENCHMARK.json was not reported\n", sp.name, m.Name)
				return 1
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			// Either set could have been the first: hold the difference to
			// the bound in both directions.
			apart := math.Abs(mb-ma) / min(ma, mb)
			sa, sb, sab := quartileSpread(a), quartileSpread(b), quartileSpread(append(append([]float64(nil), a...), b...))
			// The driver does not hold set-up time to a spread, only to
			// agreement between the medians.
			ok := apart <= m.Bound && (m.Name == "setup_s" || sab <= m.Bound)
			verdict := "PASS"
			if !ok {
				verdict, pass = "FAIL", false
			}
			fmt.Fprintf(stdout, "| %s | %s | %s | %s | %s | %.1f%% | %.1f%% | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				sp.name, m.Name, m.Unit, formatValue(ma), formatValue(mb), 100*sa, 100*sb, 100*sab, 100*worse, 100*m.Bound, verdict)
		}
	}
	if !pass {
		fmt.Fprintln(stderr, "benchmark: two sets of runs of the same code disagree by more than the benchmark's own bounds")
		return 1
	}
	return 0
}
