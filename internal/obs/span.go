package obs

import (
	"sync"
	"time"

	"github.com/xheal/xheal/internal/graph"
)

// Phase is one boundary in a repair's lifecycle. Phases are stamped in
// order; the distributed engine stamps all of them, the sequential
// reference only the ones that exist in its execution (admission, rewiring,
// settling).
type Phase uint8

// Repair lifecycle phases, in execution order.
const (
	// PhaseRewired: Algorithm 3.1 computed and applied the repair's cloud
	// rewiring (stamped by internal/core at the end of the case dispatch).
	PhaseRewired Phase = iota
	// PhaseElected: the wound's leader election resolved and the elected
	// leader took over the repair (stamped by internal/dist when the leader
	// picks up the repair plan).
	PhaseElected
	// PhaseDisseminated: the cloud rewiring was disseminated — every edge
	// update reached its node and no protocol messages remain in flight
	// (stamped by internal/dist after the last round).
	PhaseDisseminated
	// PhaseSettled: the repair is complete and the engine's state has
	// settled (stamped by RepairEnd).
	PhaseSettled
	numPhases
)

// String implements fmt.Stringer; the names double as Prometheus label
// values.
func (p Phase) String() string {
	switch p {
	case PhaseRewired:
		return "rewired"
	case PhaseElected:
		return "elected"
	case PhaseDisseminated:
		return "disseminated"
	case PhaseSettled:
		return "settled"
	}
	return "unknown"
}

// Phases lists the lifecycle phases in execution order.
func Phases() []Phase { return []Phase{PhaseRewired, PhaseElected, PhaseDisseminated, PhaseSettled} }

// SpanPhases carries one span's phase stamps: microseconds from span start
// to the completion of each phase. A zero stamp with omitempty means the
// phase does not exist on the emitting engine (the sequential reference has
// no election or dissemination).
type SpanPhases struct {
	RewiredUS      float64 `json:"rewired_us"`
	ElectedUS      float64 `json:"elected_us,omitempty"`
	DisseminatedUS float64 `json:"disseminated_us,omitempty"`
	SettledUS      float64 `json:"settled_us"`
}

// Span is one repaired wound's trace record. The key is (Tick, Event):
// Event is the span's 0-based position in the adversarial event stream — in
// a serving run, exactly the line index (after the header) of the deletion
// in the trace event log — so every span correlates with the replayable
// trace that reproduces it. Seq is the deletion ordinal, the span's index
// into the distributed engine's cost ledger.
type Span struct {
	Tick  uint64       `json:"tick"`
	Event int          `json:"event"`
	Seq   int          `json:"seq"`
	Node  graph.NodeID `json:"node"`
	// Wound is the deleted node's degree at deletion time (the wound the
	// repair must close); BlackDegree counts the black (original or
	// adversary-inserted) incident edges, Lemma 5's deg_G′ term.
	Wound       int `json:"wound"`
	BlackDegree int `json:"black_degree"`
	// Clouds is the number of expander clouds the repair wired (primary and
	// secondary); CloudNodes is their total membership — the paper's cloud
	// size, the locality footprint of the repair.
	Clouds     int `json:"clouds"`
	CloudNodes int `json:"cloud_nodes"`
	// Rounds and Messages are the repair's protocol cost, matching the
	// distributed engine's cost ledger entry (zero on the sequential
	// reference, which exchanges no messages).
	Rounds   int `json:"rounds"`
	Messages int `json:"messages"`
	// StartUnixNano is the wall-clock admission time; the phase stamps in
	// Phases are monotonic offsets from it.
	StartUnixNano int64      `json:"start_unix_nano"`
	Phases        SpanPhases `json:"phases"`
}

// stamp returns a pointer to the phase's field in SpanPhases.
func (sp *SpanPhases) stamp(p Phase) *float64 {
	switch p {
	case PhaseRewired:
		return &sp.RewiredUS
	case PhaseElected:
		return &sp.ElectedUS
	case PhaseDisseminated:
		return &sp.DisseminatedUS
	default:
		return &sp.SettledUS
	}
}

// Recorder builds spans from engine callbacks and accumulates the derived
// metrics (per-phase time totals, repair latency histogram, event/repair
// counters). Engines call it at repair phase boundaries; the server keys it
// with the current tick.
//
// Every method no-ops on a nil *Recorder — a nil recorder IS the disabled
// state, and the hot path pays exactly one nil check per boundary. Methods
// are safe for concurrent use.
type Recorder struct {
	mu sync.Mutex

	w          *SpanWriter // optional span sink
	repairHist *Histogram  // optional repair-latency histogram (seconds)

	tick  uint64
	event int // next event index in the adversarial event stream
	seq   int // deletions so far

	open    bool
	cur     Span
	started time.Time
	last    time.Time // previous phase boundary, for per-phase totals

	phaseSeconds  [numPhases]float64
	totalRounds   uint64
	totalMessages uint64
	spans         uint64
	dropped       uint64
}

// NewRecorder builds a recorder. Both arguments are optional: w receives
// every completed span as one JSONL line; repairHist observes every span's
// total latency in seconds.
func NewRecorder(w *SpanWriter, repairHist *Histogram) *Recorder {
	return &Recorder{w: w, repairHist: repairHist}
}

// SetTick keys subsequently emitted spans with the given tick (the server's
// applied-batch ordinal).
func (r *Recorder) SetTick(tick uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tick = tick
	r.mu.Unlock()
}

// InsertApplied advances the event index past one applied insertion, keeping
// span event indices aligned with the trace event log.
func (r *Recorder) InsertApplied() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.event++
	r.mu.Unlock()
}

// RepairBegin opens the span for one admitted deletion. A span still open
// from a driver that never settled it is finalized first (and such spans
// are visible as a settled-stamp equal to the last phase stamp).
func (r *Recorder) RepairBegin(node graph.NodeID, wound, blackDegree int) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	if r.open {
		r.finishLocked(now)
	}
	r.cur = Span{
		Tick:          r.tick,
		Event:         r.event,
		Seq:           r.seq,
		Node:          node,
		Wound:         wound,
		BlackDegree:   blackDegree,
		StartUnixNano: now.UnixNano(),
	}
	r.event++
	r.seq++
	r.open = true
	r.started = now
	r.last = now
	r.mu.Unlock()
}

// Phase stamps the completion of one lifecycle phase on the open span.
func (r *Recorder) Phase(p Phase) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	if r.open {
		*r.cur.Phases.stamp(p) = float64(now.Sub(r.started).Microseconds())
		r.phaseSeconds[p] += now.Sub(r.last).Seconds()
		r.last = now
	}
	r.mu.Unlock()
}

// CloudWired records one expander cloud the repair constructed, of the
// given membership size.
func (r *Recorder) CloudWired(size int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.open {
		r.cur.Clouds++
		r.cur.CloudNodes += size
	}
	r.mu.Unlock()
}

// Cost records the repair's protocol cost (the distributed engine's ledger
// entry for this deletion).
func (r *Recorder) Cost(rounds, messages int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.open {
		r.cur.Rounds = rounds
		r.cur.Messages = messages
	}
	r.mu.Unlock()
}

// RepairEnd stamps PhaseSettled and emits the span.
func (r *Recorder) RepairEnd() {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	if r.open {
		*r.cur.Phases.stamp(PhaseSettled) = float64(now.Sub(r.started).Microseconds())
		r.phaseSeconds[PhaseSettled] += now.Sub(r.last).Seconds()
		r.finishLocked(now)
	}
	r.mu.Unlock()
}

// finishLocked emits the open span. Callers hold r.mu.
func (r *Recorder) finishLocked(now time.Time) {
	r.open = false
	r.totalRounds += uint64(r.cur.Rounds)
	r.totalMessages += uint64(r.cur.Messages)
	if r.repairHist != nil {
		r.repairHist.Observe(now.Sub(r.started).Seconds())
	}
	if r.w != nil {
		if err := r.w.Write(&r.cur); err != nil {
			r.dropped++
			return
		}
	}
	r.spans++
}

// Spans returns the number of spans emitted; Dropped the number lost to
// span-log write failures (a healthy run has zero).
func (r *Recorder) Spans() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// Dropped returns the number of spans lost to span-log write failures.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Repairs returns the number of repairs begun (the deletion ordinal).
func (r *Recorder) Repairs() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return uint64(r.seq)
}

// Ledger returns the cumulative protocol cost across all emitted spans.
func (r *Recorder) Ledger() (rounds, messages uint64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.totalRounds, r.totalMessages
}

// PhaseSeconds returns cumulative seconds spent in phase p across all
// repairs (the increment between consecutive phase boundaries).
func (r *Recorder) PhaseSeconds(p Phase) float64 {
	if r == nil || p >= numPhases {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.phaseSeconds[p]
}

// RepairHist returns the repair-latency histogram the recorder observes
// into, or nil.
func (r *Recorder) RepairHist() *Histogram {
	if r == nil {
		return nil
	}
	return r.repairHist
}
