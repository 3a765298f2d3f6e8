package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/graph"
)

// FormatVersion identifies the trace schema.
const FormatVersion = 1

// Sentinel errors.
var (
	ErrBadVersion = errors.New("trace: unsupported format version")
	ErrBadEvent   = errors.New("trace: malformed event")
)

// Event is the serialized form of one adversarial action.
type Event struct {
	// Kind is "insert" or "delete".
	Kind string `json:"kind"`
	// Node is the inserted or deleted node.
	Node graph.NodeID `json:"node"`
	// Neighbors are the insertion attachments (insert only).
	Neighbors []graph.NodeID `json:"neighbors,omitempty"`
}

// Trace is a replayable adversarial run: the initial topology and the event
// sequence applied to it.
type Trace struct {
	Version int            `json:"version"`
	Nodes   []graph.NodeID `json:"nodes"`
	Edges   []graph.Edge   `json:"edges"`
	Events  []Event        `json:"events"`

	// BaseTick and BaseEvents anchor a log segment written after a
	// checkpoint: the segment's events start BaseEvents events into the run,
	// not at genesis, and its header carries no graph (Nodes/Edges are null;
	// segments from older daemons repeat the genesis graph there, and load
	// the same). Such a segment cannot be replayed on its own — recovery
	// must first restore the checkpoint named by Checkpoint.
	BaseTick   uint64 `json:"base_tick,omitempty"`
	BaseEvents uint64 `json:"base_events,omitempty"`
	Checkpoint string `json:"checkpoint,omitempty"`

	// TornTail reports that the final log line was truncated mid-write (a
	// crash artifact) and was dropped. By log-before-ack ordering a torn
	// event was never acknowledged, so dropping it is lossless; callers
	// should still surface a warning.
	TornTail bool `json:"-"`
}

// New starts a trace over the given initial graph.
func New(g0 *graph.Graph) *Trace {
	return &Trace{
		Version: FormatVersion,
		Nodes:   g0.Nodes(),
		Edges:   g0.Edges(),
	}
}

// FromEvents builds a trace over g0 already holding the given events — the
// conformance shrinker's artifact constructor: a shrunk schedule saved this
// way replays with `xheal-sim -replay <file>`.
func FromEvents(g0 *graph.Graph, events []adversary.Event) *Trace {
	t := New(g0)
	for _, ev := range events {
		t.Record(ev)
	}
	return t
}

// Record appends one adversary event.
func (t *Trace) Record(ev adversary.Event) {
	out := Event{Node: ev.Node}
	switch ev.Kind {
	case adversary.Insert:
		out.Kind = "insert"
		out.Neighbors = append([]graph.NodeID(nil), ev.Neighbors...)
	case adversary.Delete:
		out.Kind = "delete"
	}
	t.Events = append(t.Events, out)
}

// Initial reconstructs the initial graph.
func (t *Trace) Initial() *graph.Graph {
	g := graph.New()
	for _, n := range t.Nodes {
		g.EnsureNode(n)
	}
	for _, e := range t.Edges {
		g.EnsureEdge(e.U, e.V)
	}
	return g
}

// Adversary returns a scripted adversary replaying the recorded events.
func (t *Trace) Adversary() (adversary.Adversary, error) {
	events := make([]adversary.Event, 0, len(t.Events))
	for i, ev := range t.Events {
		var kind adversary.EventKind
		switch ev.Kind {
		case "insert":
			kind = adversary.Insert
		case "delete":
			kind = adversary.Delete
		default:
			return nil, fmt.Errorf("event %d has kind %q: %w", i, ev.Kind, ErrBadEvent)
		}
		events = append(events, adversary.Event{
			Kind:      kind,
			Node:      ev.Node,
			Neighbors: append([]graph.NodeID(nil), ev.Neighbors...),
		})
	}
	return &adversary.Scripted{Events: events}, nil
}

// Save writes the trace as indented JSON.
func (t *Trace) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(t); err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	return nil
}

// Load reads a trace written by Save, or an append-only event log written by
// LogWriter (the header value followed by one Event value per line — the
// trailing events are folded into Trace.Events, so both forms replay
// identically).
//
// A final log line truncated mid-write — the artifact a crash leaves — is
// dropped and reported via Trace.TornTail rather than failing the load: by
// log-before-ack ordering the torn event was never acknowledged. A malformed
// line *followed by more content* is real corruption and still fails.
func Load(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(r)
	var t Trace
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if t.Version != FormatVersion {
		return nil, fmt.Errorf("version %d: %w", t.Version, ErrBadVersion)
	}
	for i, ev := range t.Events {
		if ev.Kind != "insert" && ev.Kind != "delete" {
			return nil, fmt.Errorf("event %d has kind %q: %w", i, ev.Kind, ErrBadEvent)
		}
	}
	// Log-form events follow one per line; read line-wise so only a torn
	// *final* line is tolerated.
	sc := bufio.NewScanner(io.MultiReader(dec.Buffered(), r))
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var badLine error
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if badLine != nil {
			return nil, badLine // malformed line followed by more content
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			badLine = fmt.Errorf("trace: decode log event %d: %w", len(t.Events), err)
			continue
		}
		if ev.Kind != "insert" && ev.Kind != "delete" {
			return nil, fmt.Errorf("event %d has kind %q: %w", len(t.Events), ev.Kind, ErrBadEvent)
		}
		t.Events = append(t.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	t.TornTail = badLine != nil
	return &t, nil
}

// Recording wraps an adversary, recording every event it emits.
type Recording struct {
	Inner adversary.Adversary
	Trace *Trace
}

var _ adversary.Adversary = (*Recording)(nil)

// Next implements adversary.Adversary.
func (r *Recording) Next(view *graph.Graph) (adversary.Event, bool) {
	ev, ok := r.Inner.Next(view)
	if ok {
		r.Trace.Record(ev)
	}
	return ev, ok
}
