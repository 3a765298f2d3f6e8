package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/core"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/metrics/live"
	"github.com/xheal/xheal/internal/obs"
	"github.com/xheal/xheal/internal/server"
	"github.com/xheal/xheal/internal/spectral"
	"github.com/xheal/xheal/internal/workload"
)

// The -scale mode records the serving daemon's large-n envelope: health-poll
// latency, array-ingest throughput, and λ₂ refresh cost cold vs warm-started.
// (BENCH_PR10.json was recorded by an earlier form of this mode that also
// measured the since-removed clone-and-measure health path and single-event
// POSTs as a "before" leg.) Optional SLO flags turn the run into a CI gate.

// scalePoint is one network size's measurements.
type scalePoint struct {
	N            int `json:"n"`
	InitialEdges int `json:"initial_edges"`

	// λ₂ refresh cost on this topology: a cold 90-step Lanczos run vs a
	// 32-step run warm-started from the previous Ritz vector after churn.
	Lambda2Cold        float64 `json:"lambda2_cold"`
	Lambda2ColdSeconds float64 `json:"lambda2_cold_seconds"`
	Lambda2Warm        float64 `json:"lambda2_warm"`
	Lambda2WarmSeconds float64 `json:"lambda2_warm_seconds"`

	// Health-poll latency (tracker + caches), in-process on the idle daemon.
	LiveHealthPolls int     `json:"live_health_polls"`
	LiveHealthP50MS float64 `json:"live_health_p50_ms"`
	LiveHealthP99MS float64 `json:"live_health_p99_ms"`

	// Ingest throughput over HTTP in 256-event arrays (one intake lock per
	// array).
	ArrayIngestEvents int     `json:"array_ingest_events"`
	ArrayLen          int     `json:"array_len"`
	ArrayIngestEPS    float64 `json:"array_ingest_events_per_sec"`

	// Live-path telemetry after the run.
	TrackerAudits        uint64 `json:"tracker_audits"`
	TrackerAuditFailures uint64 `json:"tracker_audit_failures"`
	Lambda2Refreshes     uint64 `json:"lambda2_refreshes"`
	Lambda2WarmRefreshes uint64 `json:"lambda2_warm_refreshes"`
}

// scaleReport is the schema of the -scale output (BENCH_PR10.json).
type scaleReport struct {
	Env    obs.Env      `json:"env"`
	Note   string       `json:"note"`
	Points []scalePoint `json:"points"`
}

func percentileMS(durs []time.Duration, p float64) float64 {
	if len(durs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx].Microseconds()) / 1000
}

// ingestHTTP drives clients concurrent streams of conflict-free events
// through POST /v1/events, arrayLen events per request, and returns measured
// events/sec.
func ingestHTTP(url string, client *http.Client, anchors []graph.NodeID, clients, perClient, arrayLen int, seed int64) (float64, error) {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stream := adversary.NewClientStream(c, anchors, 0.3, 3, seed)
			sent := 0
			for sent < perClient {
				k := arrayLen
				if rest := perClient - sent; k > rest {
					k = rest
				}
				events := make([]server.IngestEvent, k)
				for i := range events {
					ev := stream.Next()
					kind := "insert"
					if ev.Kind == adversary.Delete {
						kind = "delete"
					}
					events[i] = server.IngestEvent{Kind: kind, Node: ev.Node, Neighbors: ev.Neighbors}
				}
				body, err := json.Marshal(events)
				if err != nil {
					errs[c] = err
					return
				}
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					errs[c] = err
					return
				}
				var r server.IngestResponse
				err = json.NewDecoder(resp.Body).Decode(&r)
				resp.Body.Close()
				if err != nil {
					errs[c] = err
					return
				}
				if resp.StatusCode != http.StatusOK || r.Applied != k {
					errs[c] = fmt.Errorf("client %d: status %d, applied %d/%d: %s",
						c, resp.StatusCode, r.Applied, k, r.Error)
					return
				}
				sent += k
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(clients*perClient) / time.Since(start).Seconds(), nil
}

// measureScalePoint runs the measurement protocol at one network size.
func measureScalePoint(stderr io.Writer, n, events, arrayLen int) (scalePoint, error) {
	pt := scalePoint{N: n, ArrayLen: arrayLen}
	progress := func(format string, args ...any) {
		fmt.Fprintf(stderr, "scale n=%d: %s\n", n, fmt.Sprintf(format, args...))
	}

	progress("building %d-node random regular topology", n)
	g0, err := workload.RandomRegular(n, 3, rand.New(rand.NewSource(41)))
	if err != nil {
		return pt, err
	}
	st, err := core.NewState(core.Config{Kappa: 4, Seed: 42}, g0)
	if err != nil {
		return pt, err
	}
	pt.InitialEdges = st.Graph().NumEdges()

	// λ₂ refresh cost: cold on the initial topology, then warm after a small
	// direct churn — the cache carries the Ritz vector across the change
	// exactly as the daemon's refresher does.
	progress("λ₂ cold refresh (90-step Lanczos)")
	cache := live.NewLambda2Cache(43)
	cache.Refresh(spectral.NewCSR(st.Graph()), true, st.Graph().Generation(), 0)
	pt.Lambda2Cold, _, _ = cache.Value()
	pt.Lambda2ColdSeconds = cache.Stats().LastSeconds
	churn := adversary.NewClientStream(99, st.Graph().Nodes()[:16], 0.3, 3, 44)
	for i := 0; i < 64; i++ {
		ev := churn.Next()
		if ev.Kind == adversary.Delete {
			err = st.DeleteNode(ev.Node)
		} else {
			err = st.InsertNode(ev.Node, ev.Neighbors)
		}
		if err != nil {
			return pt, fmt.Errorf("λ₂ churn: %w", err)
		}
	}
	progress("λ₂ warm refresh (32-step, carried Ritz vector)")
	cache.Refresh(spectral.NewCSR(st.Graph()), true, st.Graph().Generation(), 1)
	pt.Lambda2Warm, _, _ = cache.Value()
	pt.Lambda2WarmSeconds = cache.Stats().LastSeconds
	if !cache.Stats().LastWarm {
		return pt, fmt.Errorf("λ₂ refresh after churn did not warm-start")
	}

	anchors := append([]graph.NodeID(nil), g0.Nodes()[:64]...)
	// InvariantBudget keeps the per-tick structural check O(budget) instead
	// of O(n+m) — the sampled mode this report's serving numbers assume.
	cfg := server.Config{QueueDepth: 4 * arrayLen * 4, RefreshEvery: 64, AuditEvery: 0, InvariantBudget: 4096}

	srv := server.New(st, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	// Let the startup refresh (cold Lanczos + stretch trees) land before
	// timing anything: the measured window then reflects steady state, where
	// periodic refreshes warm-start, not the one-off warm-up.
	progress("waiting for λ₂ + stretch caches")
	deadline := time.Now().Add(10 * time.Minute)
	for {
		h := srv.Health()
		if h.Live != nil && h.Live.Lambda2Valid && h.Live.StretchValid {
			break
		}
		if time.Now().After(deadline) {
			return pt, fmt.Errorf("live caches never became valid")
		}
		time.Sleep(50 * time.Millisecond)
	}

	progress("ingesting %d events in %d-event arrays", events, arrayLen)
	pt.ArrayIngestEvents = events
	pt.ArrayIngestEPS, err = ingestHTTP(ts.URL+"/v1/events", ts.Client(), anchors, 4, events/4, arrayLen, 46)
	if err != nil {
		return pt, fmt.Errorf("array ingest: %w", err)
	}

	const livePolls = 2000
	progress("%d tracker health polls", livePolls)
	durs := make([]time.Duration, livePolls)
	for i := range durs {
		t0 := time.Now()
		if h := srv.Health(); h.Nodes == 0 {
			return pt, fmt.Errorf("empty live health snapshot")
		}
		durs[i] = time.Since(t0)
	}
	pt.LiveHealthPolls = livePolls
	pt.LiveHealthP50MS = percentileMS(durs, 0.50)
	pt.LiveHealthP99MS = percentileMS(durs, 0.99)

	h := srv.Health()
	if h.Live != nil {
		pt.TrackerAudits = h.Live.Audits
		pt.TrackerAuditFailures = h.Live.AuditFailures
		pt.Lambda2Refreshes = h.Live.Lambda2Refreshes
		pt.Lambda2WarmRefreshes = h.Live.Lambda2WarmRefreshes
	}
	if err := srv.LiveAuditError(); err != nil {
		return pt, err
	}
	return pt, nil
}

// runScale measures every requested size and writes the report; non-zero SLO
// bounds gate the exit code on the largest measured size.
func runScale(stderr io.Writer, sizes string, events int, outPath string, sloHealthP99MS, sloIngestEPS float64) int {
	var ns []int
	for _, f := range strings.Split(sizes, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 256 {
			fmt.Fprintf(stderr, "scale: bad size %q (need integers ≥ 256)\n", f)
			return 2
		}
		ns = append(ns, n)
	}
	if len(ns) == 0 {
		fmt.Fprintln(stderr, "scale: no sizes given (e.g. -scale 10000,100000)")
		return 2
	}

	report := scaleReport{
		Env: obs.CaptureEnv(),
		Note: "per size: incremental tracker health polls, 256-event array ingest, " +
			"cold (90-step) vs warm-started (32-step) λ₂ refresh; " +
			"single-CPU hosts serialize the 4 ingest clients, so events_per_sec there is a floor",
	}
	const arrayLen = 256
	for _, n := range ns {
		pt, err := measureScalePoint(stderr, n, events, arrayLen)
		if err != nil {
			fmt.Fprintf(stderr, "scale n=%d: %v\n", n, err)
			return 1
		}
		fmt.Fprintf(stderr,
			"scale n=%d: health p99 %.3fms; ingest %.0f ev/s in %d-event arrays; λ₂ %.2fs cold vs %.2fs warm\n",
			n, pt.LiveHealthP99MS, pt.ArrayIngestEPS, arrayLen,
			pt.Lambda2ColdSeconds, pt.Lambda2WarmSeconds)
		report.Points = append(report.Points, pt)
	}

	if outPath != "" {
		if err := writeJSON(outPath, report); err != nil {
			fmt.Fprintf(stderr, "scale: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote %s\n", outPath)
	}

	// SLO gates run against the largest size measured.
	last := report.Points[len(report.Points)-1]
	failed := false
	if sloHealthP99MS > 0 && last.LiveHealthP99MS > sloHealthP99MS {
		fmt.Fprintf(stderr, "scale: SLO VIOLATION: live health p99 %.3fms > %.3fms at n=%d\n",
			last.LiveHealthP99MS, sloHealthP99MS, last.N)
		failed = true
	}
	if sloIngestEPS > 0 && last.ArrayIngestEPS < sloIngestEPS {
		fmt.Fprintf(stderr, "scale: SLO VIOLATION: array ingest %.0f ev/s < %.0f ev/s at n=%d\n",
			last.ArrayIngestEPS, sloIngestEPS, last.N)
		failed = true
	}
	if last.TrackerAuditFailures > 0 {
		fmt.Fprintf(stderr, "scale: SLO VIOLATION: %d tracker audit failures\n", last.TrackerAuditFailures)
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}
