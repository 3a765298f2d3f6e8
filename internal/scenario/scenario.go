package scenario

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/workload"
)

// IDBase is the first node ID a scenario stream allocates for inserted
// nodes. It matches the adversary package's allocator base, far above any
// genesis ID, and stays below adversary.ClientStreamBase so scenario traffic
// and client-stream traffic can share a daemon without colliding.
const IDBase graph.NodeID = 1 << 20

// Params sizes and paces a scenario. Zero fields are filled from the
// scenario's Defaults, so callers only override what they care about.
type Params struct {
	// N is the genesis topology size (workload.ByName semantics).
	N int
	// Events is how many mutation events Compile emits. Streams themselves
	// are unbounded — soak mode keeps calling Next past this count.
	Events int
	// Wave is the burst size: events per wave. Waves are internally
	// conflict-free, so a wave can be submitted as one serving batch.
	Wave int
	// Rate is the target sustained mutation rate in events/second for the
	// drill (cmd/xheal-drill; 0 = unpaced). Offline consumers ignore it.
	Rate float64
	// Seed derives both the genesis topology (Seed) and the event stream
	// (Seed+1), mirroring the conformance matrix's Cell convention.
	Seed int64
}

// withDefaults fills zero fields from d. Seed 0 is a valid explicit seed for
// rand.NewSource, but the registry defaults all use nonzero seeds, so zero
// means "use the default" here — the same convention the CLIs follow.
func (p Params) withDefaults(d Params) Params {
	if p.N == 0 {
		p.N = d.N
	}
	if p.Events == 0 {
		p.Events = d.Events
	}
	if p.Wave == 0 {
		p.Wave = d.Wave
	}
	if p.Rate == 0 {
		p.Rate = d.Rate
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	return p
}

// stepFunc emits the next event given the stream's bookkeeping state. The
// stream applies the event and enforces wave bookkeeping; the generator only
// chooses it.
type stepFunc func(*Stream) adversary.Event

// Scenario is one named chaos shape: a genesis topology family plus a
// seeded event-stream generator.
type Scenario struct {
	Name        string
	Description string
	// Workload names the genesis topology family (workload.ByName).
	Workload string
	// ReadsPerWave is how many health/metrics reads cmd/xheal-drill
	// interleaves per mutation wave (mixed read/heal traffic); 0 = none.
	ReadsPerWave int
	// Defaults are the parameters a zero Params resolves to.
	Defaults Params

	start func(*Stream) stepFunc
}

// Stream is a running scenario instance: an unbounded, deterministic event
// source over a bookkeeping graph that tracks the engine's alive set.
type Stream struct {
	sc      *Scenario
	p       Params
	genesis *graph.Graph
	book    *graph.Graph
	rng     *rand.Rand
	next    graph.NodeID
	idx     int
	// touched holds nodes inserted or attached-to in the current wave:
	// deleting one of them in the same wave would be a same-batch conflict.
	touched map[graph.NodeID]struct{}
	step    stepFunc
}

// NewStream instantiates the named scenario. The returned stream yields an
// unbounded deterministic event sequence; Compile bounds it at p.Events.
func NewStream(name string, p Params) (*Stream, error) {
	sc, err := ByName(name)
	if err != nil {
		return nil, err
	}
	p = p.withDefaults(sc.Defaults)
	if p.N < 8 {
		return nil, fmt.Errorf("scenario %s: n=%d too small (min 8)", name, p.N)
	}
	if p.Wave < 1 || p.Events < 1 {
		return nil, fmt.Errorf("scenario %s: wave=%d events=%d must be positive", name, p.Wave, p.Events)
	}
	g0, err := workload.ByName(sc.Workload, p.N, rand.New(rand.NewSource(p.Seed)))
	if err != nil {
		return nil, fmt.Errorf("scenario %s genesis: %w", name, err)
	}
	s := &Stream{
		sc:      sc,
		p:       p,
		genesis: g0,
		book:    g0.Clone(),
		rng:     rand.New(rand.NewSource(p.Seed + 1)),
		next:    IDBase,
		touched: make(map[graph.NodeID]struct{}),
	}
	s.step = sc.start(s)
	return s, nil
}

// Scenario returns the scenario this stream instantiates.
func (s *Stream) Scenario() *Scenario { return s.sc }

// Params returns the fully resolved parameters.
func (s *Stream) Params() Params { return s.p }

// Genesis returns the pristine initial topology (not the bookkeeping copy).
// Callers must not mutate it.
func (s *Stream) Genesis() *graph.Graph { return s.genesis }

// Emitted returns how many events the stream has produced so far.
func (s *Stream) Emitted() int { return s.idx }

// Next emits the next event and applies it to the bookkeeping graph. Every
// event is valid by construction against an engine that has applied the
// whole prefix, and waves of Params.Wave consecutive events are free of
// same-batch conflicts.
func (s *Stream) Next() adversary.Event {
	if s.idx%s.p.Wave == 0 {
		clear(s.touched)
	}
	ev := s.step(s)
	s.apply(ev)
	s.idx++
	return ev
}

// apply folds the event into the bookkeeping graph and the wave conflict
// set. Generators must emit valid events; a violation here is a scenario
// bug, so it panics rather than limping into a diverging schedule.
func (s *Stream) apply(ev adversary.Event) {
	switch ev.Kind {
	case adversary.Insert:
		if err := s.book.AddNode(ev.Node); err != nil {
			panic(fmt.Sprintf("scenario %s: insert %d: %v", s.sc.Name, ev.Node, err))
		}
		s.touched[ev.Node] = struct{}{}
		for _, w := range ev.Neighbors {
			if err := s.book.AddEdge(ev.Node, w); err != nil {
				panic(fmt.Sprintf("scenario %s: insert %d edge to %d: %v", s.sc.Name, ev.Node, w, err))
			}
			s.touched[w] = struct{}{}
		}
	case adversary.Delete:
		if _, ok := s.touched[ev.Node]; ok {
			panic(fmt.Sprintf("scenario %s: delete %d conflicts with an insert in the same wave", s.sc.Name, ev.Node))
		}
		if _, err := s.book.RemoveNode(ev.Node); err != nil {
			panic(fmt.Sprintf("scenario %s: delete %d: %v", s.sc.Name, ev.Node, err))
		}
	default:
		panic(fmt.Sprintf("scenario %s: bad event kind %v", s.sc.Name, ev.Kind))
	}
}

// waveIndex is the zero-based index of the wave currently being emitted.
func (s *Stream) waveIndex() int { return s.idx / s.p.Wave }

// isTouched reports whether deleting v now would conflict with an earlier
// event of the same wave.
func (s *Stream) isTouched(v graph.NodeID) bool {
	_, ok := s.touched[v]
	return ok
}

// allocID hands out a fresh node ID; scenario IDs never collide with genesis
// or previously deleted nodes.
func (s *Stream) allocID() graph.NodeID {
	id := s.next
	s.next++
	return id
}

func (s *Stream) insertEvent(nbrs []graph.NodeID) adversary.Event {
	return adversary.Event{Kind: adversary.Insert, Node: s.allocID(), Neighbors: nbrs}
}

func deleteEvent(v graph.NodeID) adversary.Event {
	return adversary.Event{Kind: adversary.Delete, Node: v}
}

// attachSet picks up to k distinct alive attachment targets from pool (nil
// pool = every alive node). Deleted nodes fall out of the bookkeeping graph,
// so filtering on HasNode keeps the wave conflict-free. At least one target
// is always returned: the whole-graph fallback scan can only come up empty
// if the bookkeeping graph itself is empty, which the generators' alive
// floors rule out.
func (s *Stream) attachSet(k int, pool []graph.NodeID) []graph.NodeID {
	if pool == nil {
		pool = s.book.Nodes()
	}
	out := make([]graph.NodeID, 0, k)
	seen := make(map[graph.NodeID]struct{}, k)
	for tries := 0; tries < 16*k && len(out) < k; tries++ {
		v := pool[s.rng.Intn(len(pool))]
		if !s.book.HasNode(v) {
			continue
		}
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	if len(out) == 0 {
		for _, v := range s.book.Nodes() {
			out = append(out, v)
			break
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pickAliveFrom returns a uniformly random pool member that is alive and
// passes keep (nil = no filter), retrying then falling back to a scan so a
// crowded exclusion set degrades to determinism, not failure.
func (s *Stream) pickAliveFrom(pool []graph.NodeID, keep func(graph.NodeID) bool) (graph.NodeID, bool) {
	if len(pool) == 0 {
		return 0, false
	}
	ok := func(v graph.NodeID) bool {
		return s.book.HasNode(v) && (keep == nil || keep(v))
	}
	for tries := 0; tries < 32; tries++ {
		if v := pool[s.rng.Intn(len(pool))]; ok(v) {
			return v, true
		}
	}
	for _, v := range pool {
		if ok(v) {
			return v, true
		}
	}
	return 0, false
}

// Compiled is a fully materialized scenario run: genesis plus the exact
// event schedule, ready for lockstep conformance, corpus generation, or
// script export.
type Compiled struct {
	Scenario *Scenario
	Params   Params
	Genesis  *graph.Graph
	Events   []adversary.Event
}

// Compile materializes Params.Events events of the named scenario.
func Compile(name string, p Params) (*Compiled, error) {
	st, err := NewStream(name, p)
	if err != nil {
		return nil, err
	}
	events := make([]adversary.Event, 0, st.p.Events)
	for i := 0; i < st.p.Events; i++ {
		events = append(events, st.Next())
	}
	return &Compiled{Scenario: st.sc, Params: st.p, Genesis: st.genesis, Events: events}, nil
}

// Script renders the schedule in the adversary.EncodeScript line format —
// the replayable, ddmin-shrinkable trace representation.
func (c *Compiled) Script() string { return adversary.EncodeScript(c.Events) }

// Waves splits the schedule into its conflict-free bursts of Params.Wave
// events (the last wave may be shorter).
func (c *Compiled) Waves() [][]adversary.Event {
	var waves [][]adversary.Event
	for i := 0; i < len(c.Events); i += c.Params.Wave {
		end := min(i+c.Params.Wave, len(c.Events))
		waves = append(waves, c.Events[i:end])
	}
	return waves
}

// Scenario names, sorted.
const (
	NameFlashCrowd = "flashcrowd"
	NamePartition  = "partition"
	NameReadMix    = "readmix"
	NameRegionFail = "regionfail"
	NameSlowDrip   = "slowdrip"
)

// Names returns the registered scenario names, sorted — the scenario-side
// mirror of adversary.Names and workload.Names.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ByName looks up a registered scenario.
func ByName(name string) (*Scenario, error) {
	sc, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q (valid: %v)", name, Names())
	}
	return sc, nil
}
