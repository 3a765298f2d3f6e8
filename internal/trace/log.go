package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/graph"
)

// This file is the append-only form of a trace: a serving daemon cannot
// buffer a whole run in memory and rewrite one JSON document per event, so
// LogWriter streams the same schema as a sequence of JSON values — first the
// header (a Trace with no events), then one Event value per applied event.
// Load accepts both forms transparently, so a live event log replays through
// `xheal-sim -replay` and `xheal-bench -conf-replay` exactly like a recorded
// trace.

// ErrLogClosed is returned by Append after Close.
var ErrLogClosed = errors.New("trace: event log is closed")

// LogWriter appends an adversarial event stream to w as it happens. Each
// Append writes one complete line, so a log truncated by a crash loses at
// most the event being written; everything flushed before it still loads.
// Append alone makes events durable against process crashes (the write
// reaches the kernel); call Sync to flush them to stable storage so they
// also survive power loss (internal/server does, once per applied batch,
// before acknowledging the batch).
//
// Not safe for concurrent use; serialize Appends (internal/server appends
// from its single tick loop).
type LogWriter struct {
	w      io.Writer
	enc    *json.Encoder
	events int
	closed bool
}

// NewLogWriter starts an event log over the initial graph g0, writing the
// header immediately.
func NewLogWriter(w io.Writer, g0 *graph.Graph) (*LogWriter, error) {
	return NewLogWriterAt(w, g0, 0, 0, "")
}

// NewLogWriterAt starts an event log segment anchored after baseEvents events
// (at tick baseTick), recording which checkpoint the segment follows. Only a
// segment that starts the run (baseEvents == 0) carries the genesis graph —
// with a zero anchor the header is NewLogWriter's. A later segment's header
// holds its anchors alone (g0 is not read and may be nil): nothing replays
// from an anchored segment's header — recovery restores the checkpoint first,
// and a from-genesis replay reads the base-0 segment — so repeating an
// O(n + m) graph at every rotation bought nothing.
func NewLogWriterAt(w io.Writer, g0 *graph.Graph, baseTick, baseEvents uint64, checkpoint string) (*LogWriter, error) {
	lw := &LogWriter{w: w, enc: json.NewEncoder(w)}
	header := Trace{
		Version:    FormatVersion,
		BaseTick:   baseTick,
		BaseEvents: baseEvents,
		Checkpoint: checkpoint,
	}
	if baseEvents == 0 {
		header.Nodes, header.Edges = g0.Nodes(), g0.Edges()
	}
	if err := lw.enc.Encode(&header); err != nil {
		return nil, fmt.Errorf("trace: log header: %w", err)
	}
	return lw, nil
}

// Append writes one adversary event to the log.
func (lw *LogWriter) Append(ev adversary.Event) error {
	if lw.closed {
		return ErrLogClosed
	}
	out := Event{Node: ev.Node}
	switch ev.Kind {
	case adversary.Insert:
		out.Kind = "insert"
		out.Neighbors = ev.Neighbors
	case adversary.Delete:
		out.Kind = "delete"
	default:
		return fmt.Errorf("event kind %d: %w", int(ev.Kind), ErrBadEvent)
	}
	if err := lw.enc.Encode(&out); err != nil {
		return fmt.Errorf("trace: log append: %w", err)
	}
	lw.events++
	return nil
}

// Events returns the number of events appended so far.
func (lw *LogWriter) Events() int { return lw.events }

// Sync flushes appended events to stable storage when the underlying writer
// supports it (*os.File does); for plain in-memory writers it is a no-op.
func (lw *LogWriter) Sync() error {
	if f, ok := lw.w.(interface{ Sync() error }); ok {
		if err := f.Sync(); err != nil {
			return fmt.Errorf("trace: log sync: %w", err)
		}
	}
	return nil
}

// Close marks the log complete. It does not close the underlying writer —
// the caller owns the file handle.
func (lw *LogWriter) Close() error {
	lw.closed = true
	return nil
}
