package server

import (
	"time"

	"github.com/xheal/xheal/internal/obs"
)

// This file assembles the daemon's unified metrics registry (internal/obs):
// the serving counters, topology gauges, the serving histograms (tick
// latency, batch size, queue depth, the refresher's apply-lock hold), and
// — when a per-wound recorder is attached — the repair span series (repair
// latency histogram, per-phase time totals, and the protocol cost ledger).
// GET /metrics renders it in the Prometheus text exposition format (version
// 0.0.4) — hand-rolled on purpose: the repo takes no dependencies, and the
// format is lines.

// buildRegistry registers every serving metric. Counters and gauges are
// pull closures evaluated at scrape time — over the loop's published copy
// (Counters), the tracker and the caches, never over s.mu, so a scrape does
// not wait for a tick or a checkpoint; histograms are the live instruments
// the tick loop and the refresher observe into.
func (s *Server) buildRegistry() {
	reg := obs.NewRegistry()
	s.reg = reg

	c := func(read func(Counters) float64) func() float64 {
		return func() float64 { return read(s.Counters()) }
	}
	reg.Counter("xheal_serve_ticks_total", "Applied timesteps (batches).",
		c(func(c Counters) float64 { return float64(c.Ticks) }))
	reg.Counter("xheal_serve_events_applied_total", "Events applied across all ticks.",
		c(func(c Counters) float64 { return float64(c.EventsApplied) }))
	reg.Counter("xheal_serve_inserts_applied_total", "Insertions applied.",
		c(func(c Counters) float64 { return float64(c.InsertsApplied) }))
	reg.Counter("xheal_serve_deletes_applied_total", "Deletions applied (healed).",
		c(func(c Counters) float64 { return float64(c.DeletesApplied) }))
	reg.Counter("xheal_serve_events_rejected_total", "Events rejected with an error.",
		c(func(c Counters) float64 { return float64(c.EventsRejected) }))
	reg.Counter("xheal_serve_events_backlogged_total", "Submissions refused by queue backpressure.",
		c(func(c Counters) float64 { return float64(c.EventsBacklogged) }))
	reg.Counter("xheal_serve_events_deferred_total", "Tick-to-tick conflict deferrals.",
		c(func(c Counters) float64 { return float64(c.EventsDeferred) }))
	reg.Counter("xheal_serve_apply_seconds_total", "Cumulative engine time applying batches.",
		c(func(c Counters) float64 { return c.ApplySeconds }))
	reg.Counter("xheal_serve_event_wait_seconds_total", "Cumulative submit-to-applied latency over applied events.",
		c(func(c Counters) float64 { return c.WaitSeconds }))
	reg.Gauge("xheal_serve_batch_events_last", "Events in the most recent batch.",
		c(func(c Counters) float64 { return float64(c.BatchLast) }))
	reg.Gauge("xheal_serve_batch_events_max", "Largest batch applied so far.",
		c(func(c Counters) float64 { return float64(c.BatchMax) }))
	reg.Gauge("xheal_serve_queue_depth", "Events accepted but not yet applied.",
		func() float64 { return float64(s.QueueDepth()) })
	// Topology gauges from the incremental tracker: no lock on the apply
	// path, no clone, no traversal at scrape time.
	l := s.live
	reg.Gauge("xheal_serve_nodes", "Alive nodes in the healed graph.",
		func() float64 { return float64(l.tracker.Values().Nodes) })
	reg.Gauge("xheal_serve_edges", "Edges in the healed graph.",
		func() float64 { return float64(l.tracker.Values().Edges) })
	reg.Gauge("xheal_serve_connected", "1 when the healed graph is connected (last established verdict).",
		func() float64 {
			if l.tracker.Values().Connected {
				return 1
			}
			return 0
		})
	reg.Gauge("xheal_serve_connectivity_age_ticks", "Ticks since the connectivity verdict was established (0 = exact).",
		func() float64 { return float64(l.tracker.Values().ConnectivityAgeTicks) })
	reg.Gauge("xheal_serve_max_degree", "Maximum degree in the healed graph.",
		func() float64 { return float64(l.tracker.Values().MaxDegree) })
	reg.Gauge("xheal_serve_max_degree_ratio", "Max over alive nodes of deg_G/max(1, deg_G_prime).",
		func() float64 { return l.tracker.Values().MaxDegreeRatio })
	reg.Gauge("xheal_serve_lambda2", "Cached algebraic-connectivity estimate (warm-started Lanczos).",
		func() float64 { v, _, _ := l.l2.Value(); return v })
	reg.Gauge("xheal_serve_lambda2_age_ticks", "Ticks since the cached lambda2 was computed.",
		func() float64 {
			_, asOf, ok := l.l2.Value()
			if !ok {
				return -1
			}
			return float64(l.tracker.Values().Ticks - asOf)
		})
	reg.Gauge("xheal_serve_changes_since_refresh", "Structural change (nodes and edges added or removed) applied since the graphs the cached estimates were last refreshed from.",
		func() float64 { return float64(s.pub.Load().refreshChanges) })
	reg.Gauge("xheal_serve_refresh_due_at_changes", "Change at which the next refresh opportunity refreshes the cached estimates: nodes + edges of the healed graph.",
		func() float64 { return float64(s.pub.Load().refreshDue) })
	reg.Counter("xheal_serve_lambda2_refreshes_total", "Lanczos runs performed by the refresher.",
		func() float64 { return float64(l.l2.Stats().Refreshes) })
	reg.Counter("xheal_serve_lambda2_warm_refreshes_total", "Lanczos runs warm-started from the previous Ritz vector.",
		func() float64 { return float64(l.l2.Stats().WarmRefreshes) })
	reg.Gauge("xheal_serve_stretch_sampled", "Sampled max-stretch estimate from the cached BFS trees (-1 until built).",
		func() float64 {
			v, _, ok := l.stretch.Value(l.tracker.Values().Ticks)
			if !ok {
				return -1
			}
			return v
		})
	reg.Counter("xheal_serve_tracker_audits_total", "Full-recomputation audits of the incremental tracker.",
		func() float64 { return float64(l.tracker.Values().Audits) })
	reg.Counter("xheal_serve_tracker_audit_failures_total", "Tracker audits that found a divergence.",
		func() float64 { return float64(l.tracker.Values().AuditFailures) })
	reg.Gauge("xheal_serve_uptime_seconds", "Seconds since the daemon started.",
		func() float64 { return time.Since(s.start).Seconds() })
	if s.cfg.Log != nil {
		reg.Counter("xheal_serve_events_not_durable_total", "Submissions refused with ErrNotDurable after an event-log failure.",
			c(func(c Counters) float64 { return float64(c.EventsNotDurable) }))
		reg.Gauge("xheal_serve_log_failed", "1 when the event log has failed and the daemon refuses writes.",
			func() float64 {
				if s.degraded.Load() {
					return 1
				}
				return 0
			})
	}
	if s.cfg.Checkpoints != nil {
		reg.Counter("xheal_serve_checkpoints_total", "Checkpoints saved by this process.",
			c(func(c Counters) float64 { return float64(c.Checkpoints) }))
		reg.Counter("xheal_serve_checkpoint_errors_total", "Checkpoint snapshot/save/compact failures.",
			c(func(c Counters) float64 { return float64(c.CheckpointErrors) }))
		reg.Gauge("xheal_serve_checkpoint_last_tick", "Tick watermark of the newest saved checkpoint.",
			c(func(c Counters) float64 { return float64(c.LastCheckpointTick) }))
		reg.Gauge("xheal_serve_checkpoint_last_events", "Event watermark of the newest saved checkpoint.",
			c(func(c Counters) float64 { return float64(c.LastCheckpointEvents) }))
		reg.Gauge("xheal_serve_changes_since_checkpoint", "Structural change (nodes and edges added or removed) applied since the newest image: what a restart would replay on top of it.",
			func() float64 { return float64(s.pub.Load().changes) })
		reg.Gauge("xheal_serve_checkpoint_due_at_changes", "Change at which the next checkpoint opportunity takes an image: nodes + edges of the healed graph.",
			func() float64 { return float64(s.pub.Load().due) })
	}

	s.tickHist = obs.MustHistogram(obs.LatencyBuckets())
	s.batchHist = obs.MustHistogram(obs.SizeBuckets())
	s.queueHist = obs.MustHistogram(obs.SizeBuckets())
	reg.Histogram("xheal_serve_tick_seconds", "Engine time applying one batch (tick latency).", s.tickHist)
	reg.Histogram("xheal_serve_batch_events", "Events per applied batch.", s.batchHist)
	reg.Histogram("xheal_serve_queue_depth_at_tick", "Queue depth observed after each applied batch.", s.queueHist)
	s.refreshLockHist = obs.MustHistogram(obs.LatencyBuckets())
	reg.Histogram("xheal_serve_refresh_lock_seconds", "Time the refresher held the apply lock per refresh, copying the graphs it rebuilds its caches from.", s.refreshLockHist)

	rec := s.cfg.Recorder
	if rec == nil {
		return
	}
	reg.Counter("xheal_repair_spans_total", "Per-wound repair spans emitted.",
		func() float64 { return float64(rec.Spans()) })
	reg.Counter("xheal_repair_spans_dropped_total", "Spans lost to span-log write failures.",
		func() float64 { return float64(rec.Dropped()) })
	reg.Counter("xheal_repair_rounds_total", "Protocol rounds across all repairs (engine cost ledger).",
		func() float64 { r, _ := rec.Ledger(); return float64(r) })
	reg.Counter("xheal_repair_messages_total", "Protocol messages across all repairs (engine cost ledger).",
		func() float64 { _, m := rec.Ledger(); return float64(m) })
	for _, p := range obs.Phases() {
		p := p
		reg.LabeledCounter("xheal_repair_phase_seconds_total",
			"Cumulative time between consecutive repair phase boundaries, by phase.",
			[]obs.Label{{Key: "phase", Value: p.String()}},
			func() float64 { return rec.PhaseSeconds(p) })
	}
	if h := rec.RepairHist(); h != nil {
		reg.Histogram("xheal_repair_seconds", "Per-wound repair latency (span admitted to settled).", h)
	}
}

// PrometheusText renders the unified registry in the Prometheus text
// exposition format.
func (s *Server) PrometheusText() string { return s.reg.PrometheusText() }

// Registry exposes the daemon's metric registry, so embedders can register
// their own series alongside the serving ones.
func (s *Server) Registry() *obs.Registry { return s.reg }
