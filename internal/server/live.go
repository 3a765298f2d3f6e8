package server

import (
	"fmt"
	"time"

	"github.com/xheal/xheal/internal/core"
	"github.com/xheal/xheal/internal/metrics"
	"github.com/xheal/xheal/internal/metrics/live"
	"github.com/xheal/xheal/internal/spectral"
)

// DeltaBatcher is the Engine facet the tick loop applies batches through:
// apply one batch and return the net structural delta it caused, which feeds
// the incremental metrics.
type DeltaBatcher interface {
	// Deprecated: the workers parameter is ignored by every engine (repairs
	// are applied serially). It stays only because the frozen
	// benchmark/traced.go overrides this signature; ROADMAP item 4(i)
	// removes that use, and the parameter with it.
	ApplyBatchDelta(b core.Batch, workers int) (core.TickDelta, error)
}

// SampledChecker is the Engine facet that checks a budgeted, rotating
// sample of the structural invariants instead of the full sweep. The server
// does not call it; the frozen benchmark/traced.go names it and times it.
type SampledChecker interface {
	CheckInvariantsSampled(budget int) error
}

// Admitter is the Engine facet the batching loop admits events into a tick
// through: O(event) per decision, verdicts identical to
// core.State.ValidateBatch's on the prospective batch. The server begins one
// admission at New and resets it every tick.
type Admitter interface {
	BeginAdmission() *core.BatchAdmission
}

// liveState is the incremental metrics layer: health polls read these
// caches instead of cloning and measuring the graph.
type liveState struct {
	tracker *live.Tracker
	l2      *live.Lambda2Cache
	stretch *live.StretchSampler
	kappa   int // engines never change κ; cached so Health skips the lock

	// adjG and adjGp are the refresher's copies of G and G′, refilled under
	// s.mu on every refresh that needs them; only the refresher touches
	// them. The CSRs built from them are fresh each refresh, because the
	// caches keep their node orderings.
	adjG, adjGp spectral.AdjacencyCopy

	// refreshC carries at most one pending refresh request to the refresher
	// goroutine; refreshDone closes when it exits.
	refreshC    chan struct{}
	refreshDone chan struct{}
}

// LiveHealth is the incremental-metrics slice of a health snapshot: the
// cached estimates plus how stale each one is, in applied ticks.
type LiveHealth struct {
	// Lambda2 is the cached algebraic connectivity estimate; valid once the
	// first refresh lands. Lambda2AgeTicks is the number of ticks applied
	// since the snapshot it was computed from.
	Lambda2         float64 `json:"lambda2"`
	Lambda2Valid    bool    `json:"lambda2_valid"`
	Lambda2AgeTicks uint64  `json:"lambda2_age_ticks"`
	// Lambda2Refreshes / Lambda2WarmRefreshes count Lanczos runs and how
	// many warm-started from the previous Ritz vector;
	// Lambda2RefreshSeconds is the wall time of the most recent run.
	Lambda2Refreshes      uint64  `json:"lambda2_refreshes"`
	Lambda2WarmRefreshes  uint64  `json:"lambda2_warm_refreshes"`
	Lambda2RefreshSeconds float64 `json:"lambda2_refresh_seconds"`
	// MaxStretch is the sampled-stretch estimate from the cached BFS trees;
	// StretchAgeTicks is the age of the oldest tree.
	MaxStretch      float64 `json:"max_stretch"`
	StretchValid    bool    `json:"stretch_valid"`
	StretchAgeTicks uint64  `json:"stretch_age_ticks"`
	// ConnectivityAgeTicks is 0 while the connectivity verdict is exact and
	// the number of ticks since it was last established otherwise.
	ConnectivityAgeTicks uint64 `json:"connectivity_age_ticks"`
	// Audit telemetry: full-recomputation checks of the tracker.
	Audits        uint64 `json:"audits"`
	AuditFailures uint64 `json:"audit_failures"`
	LastAuditTick uint64 `json:"last_audit_tick"`
}

// newLiveState builds the incremental layer over the engine's current
// graphs. Caller guarantees exclusive engine access (New does).
func (s *Server) newLiveState() *liveState {
	return &liveState{
		tracker:     live.NewTracker(s.eng.Graph(), s.eng.Baseline()),
		l2:          live.NewLambda2Cache(s.cfg.Seed + 1),
		stretch:     live.NewStretchSampler(s.cfg.stretchSources(), s.cfg.stretchMaxAge(), s.cfg.Seed+2),
		kappa:       s.eng.Kappa(),
		refreshC:    make(chan struct{}, 1),
		refreshDone: make(chan struct{}),
	}
}

// requestRefresh nudges the refresher goroutine; never blocks.
func (l *liveState) requestRefresh() {
	select {
	case l.refreshC <- struct{}{}:
	default:
	}
}

// refresher is the goroutine that re-establishes the expensive cached
// metrics (connectivity, λ₂, sampled stretch) outside the apply lock. It
// holds s.mu only long enough to copy the adjacency it needs into its own
// buffers; the CSR builds, the traversals and the Lanczos run all work on
// that copy.
func (s *Server) refresher() {
	defer close(s.live.refreshDone)
	for {
		select {
		case <-s.stopc:
			return
		case <-s.live.refreshC:
		}
		s.refreshOnce()
	}
}

// refreshJob is what a refresh found stale, as of the graphs copied into
// liveState.adjG (and adjGp when stretch is set).
type refreshJob struct {
	gen, ticks              uint64
	lambda2, stretch, stale bool
}

// refreshOnce copies under the lock, then builds and computes outside it,
// and publishes into the caches. Builds nothing when nothing is stale: the
// λ₂ generation matches the graph, no stretch tree is dirty or over-age,
// and the connectivity verdict is current.
func (s *Server) refreshOnce() {
	l := s.live

	s.mu.Lock()
	held := time.Now()
	job := s.copyForRefresh()
	s.mu.Unlock()
	s.refreshLockHist.Observe(time.Since(held).Seconds())

	if !job.stale {
		return
	}
	csrG := l.adjG.CSR()
	connected := csrG.Connected()
	l.tracker.ResolveConnectivity(connected, job.ticks)
	if job.lambda2 {
		l.l2.Refresh(csrG, connected, job.gen, job.ticks)
	}
	if job.stretch {
		l.stretch.Refresh(csrG, l.adjGp.CSR(), job.ticks)
	}
}

// copyForRefresh is the whole of a refresh that runs under s.mu: decide
// what is stale, then copy the adjacency of G, and of G′ when a stretch
// tree needs it, into the refresher's buffers. It costs one pass over each
// graph and, once the buffers have grown to the graphs' size, allocates
// nothing — no sort, no map and no CSR, which is what keeps an O(n) build
// from stalling a tick. Caller holds s.mu and is the refresher.
func (s *Server) copyForRefresh() refreshJob {
	l := s.live
	g := s.eng.Graph()
	tv := l.tracker.Values()
	l2gen, l2ok := l.l2.Generation()
	job := refreshJob{
		gen:     g.Generation(),
		ticks:   tv.Ticks,
		stretch: l.stretch.NeedsRefresh(tv.Ticks),
	}
	job.lambda2 = !l2ok || l2gen != job.gen
	job.stale = job.lambda2 || job.stretch || tv.ConnectivityAgeTicks > 0
	if job.stale {
		l.adjG.Fill(g)
	}
	if job.stretch {
		l.adjGp.Fill(s.eng.Baseline())
	}
	return job
}

// auditLive runs the tracker's full-recomputation audit against the live
// graphs. Caller holds s.mu, so the graphs exactly reflect the deltas the
// tracker has seen.
func (s *Server) auditLive() {
	if err := s.live.tracker.Audit(s.eng.Graph(), s.eng.Baseline()); err != nil {
		// The tracker records the failure (AuditFailures, surfaced as
		// degraded health); keep the daemon serving but remember the first
		// divergence for operators reading logs via health.
		if s.liveAuditErr == nil {
			s.liveAuditErr = err
		}
	}
}

// liveHealth assembles the health snapshot from the caches.
// Called without s.mu; c and logErr come from the published copy.
func (s *Server) liveHealth(c Counters, logErr error) Health {
	l := s.live
	tv := l.tracker.Values()
	lambda, l2tick, l2ok := l.l2.Value()
	l2stats := l.l2.Stats()
	stretch, stretchAge, stOk := l.stretch.Value(tv.Ticks)

	snap := metrics.Snapshot{
		Nodes:            tv.Nodes,
		Edges:            tv.Edges,
		Connected:        tv.Connected,
		MaxDegree:        tv.MaxDegree,
		MaxDegreeRatio:   tv.MaxDegreeRatio,
		MaxStretch:       metrics.Unavailable,
		ExpansionExact:   metrics.Unavailable,
		ConductanceExact: metrics.Unavailable,
		SweepExpansion:   metrics.Unavailable,
		SweepConductance: metrics.Unavailable,
		Lambda2:          metrics.Unavailable,
		Lambda2Norm:      metrics.Unavailable,
	}
	lh := &LiveHealth{
		Lambda2Valid:          l2ok,
		Lambda2Refreshes:      l2stats.Refreshes,
		Lambda2WarmRefreshes:  l2stats.WarmRefreshes,
		Lambda2RefreshSeconds: l2stats.LastSeconds,
		StretchValid:          stOk,
		ConnectivityAgeTicks:  tv.ConnectivityAgeTicks,
		Audits:                tv.Audits,
		AuditFailures:         tv.AuditFailures,
		LastAuditTick:         tv.LastAuditTick,
	}
	if l2ok {
		snap.Lambda2 = lambda
		lh.Lambda2 = lambda
		lh.Lambda2AgeTicks = tv.Ticks - l2tick
	}
	if stOk {
		snap.MaxStretch = stretch
		lh.MaxStretch = stretch
		lh.StretchAgeTicks = stretchAge
	}

	status, logMsg := "ok", ""
	if !tv.Connected || tv.AuditFailures > 0 {
		status = "degraded"
	}
	if logErr != nil {
		status, logMsg = "degraded", logErr.Error()
	}
	return Health{
		Status:     status,
		LogError:   logMsg,
		Nodes:      tv.Nodes,
		Edges:      tv.Edges,
		Connected:  tv.Connected,
		Kappa:      l.kappa,
		Snapshot:   snap,
		Counters:   c,
		QueueDepth: s.QueueDepth(),
		Live:       lh,
	}
}

// liveAuditError returns the first tracker audit divergence, if any — nil
// in a healthy daemon.
func (s *Server) liveAuditError() error {
	err := s.pub.Load().liveAuditErr
	if err == nil {
		return nil
	}
	return fmt.Errorf("incremental metrics diverged: %w", err)
}
