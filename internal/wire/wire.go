// Package wire is the byte-level vocabulary of the durable binary formats:
// engine snapshots (internal/core, internal/expander, internal/hgraph,
// internal/dist) and the checkpoint file header (internal/checkpoint).
//
// Everything is a uvarint. Signed values are zigzag-coded; ascending ID lists
// and sorted edge lists are delta-coded, so an ID costs one or two bytes
// instead of the seven or eight digits JSON spends; byte strings and lists
// carry a length prefix. Differences are taken modulo 2⁶⁴, so a list that is
// not ascending still round-trips exactly — it is only encoded less tightly.
//
// A Reader never trusts a length prefix: every count is checked against the
// bytes that remain before anything is allocated for it, so decoding a
// hostile or torn input allocates at most a small multiple of the input's
// size. Its error is sticky: after the first failure every read returns zero
// and every count is zero, so a decoder reads straight through and checks
// Err once at the end.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/xheal/xheal/internal/graph"
)

// ErrMalformed wraps every decoding failure: truncation, a varint that
// overflows, a length prefix larger than the input, trailing bytes.
var ErrMalformed = errors.New("wire: malformed input")

// Writer appends encoded values to a byte slice.
type Writer struct {
	buf []byte
}

// Bytes returns everything written so far.
func (w *Writer) Bytes() []byte { return w.buf }

// Uvarint writes an unsigned value (or a count).
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Int writes a signed value, zigzag-coded.
func (w *Writer) Int(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Bool writes one byte, 0 or 1.
func (w *Writer) Bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// String writes a length-prefixed byte string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Raw writes b as it is, with no length prefix.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Nodes writes an ascending ID list: its length, then each ID as the
// difference from its predecessor (from 0 for the first).
func (w *Writer) Nodes(ids []graph.NodeID) {
	w.Uvarint(uint64(len(ids)))
	prev := graph.NodeID(0)
	for _, id := range ids {
		w.Uvarint(uint64(id - prev))
		prev = id
	}
}

// NodeSeq writes an ID list whose order carries meaning (an H-graph's
// sampling order, a cycle walk): its length, then each ID whole.
func (w *Writer) NodeSeq(ids []graph.NodeID) {
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		w.Uvarint(uint64(id))
	}
}

// Edge writes e relative to prev, the edge before it in (U, V) order: U as
// the difference from prev.U, then V as the difference from prev.V when U
// repeats and from U otherwise. Reader.Edge inverts it given the same prev.
func (w *Writer) Edge(prev, e graph.Edge) {
	du := uint64(e.U - prev.U)
	w.Uvarint(du)
	if du == 0 {
		w.Uvarint(uint64(e.V - prev.V))
	} else {
		w.Uvarint(uint64(e.V - e.U))
	}
}

// Edges writes a sorted edge list: its length, then each edge relative to
// its predecessor (to the zero edge for the first).
func (w *Writer) Edges(es []graph.Edge) {
	w.Uvarint(uint64(len(es)))
	var prev graph.Edge
	for _, e := range es {
		w.Edge(prev, e)
		prev = e
	}
}

// Reader decodes what a Writer wrote.
type Reader struct {
	data []byte
	err  error
}

// NewReader reads from data; slices it returns may alias data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first decoding failure, or nil.
func (r *Reader) Err() error { return r.err }

// Done returns the first decoding failure, or an error if input remains.
func (r *Reader) Done() error {
	if r.err == nil && len(r.data) > 0 {
		r.fail("%d trailing bytes", len(r.data))
	}
	return r.err
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
	}
	r.data = nil
}

// Uvarint reads an unsigned value.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

// Int reads a zigzag-coded signed value.
func (r *Reader) Int() int64 {
	v, n := binary.Varint(r.data)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	if len(r.data) == 0 || r.data[0] > 1 {
		r.fail("bad bool")
		return false
	}
	b := r.data[0] == 1
	r.data = r.data[1:]
	return b
}

// Count reads a list length and checks it against the bytes that remain:
// every element takes at least elemBytes of input, so a count the input
// cannot hold is malformed — reported before anything is allocated for it.
func (r *Reader) Count(elemBytes int) int {
	n := r.Uvarint()
	if n > uint64(len(r.data)/elemBytes) {
		r.fail("length prefix %d exceeds the %d bytes that remain", n, len(r.data))
		return 0
	}
	return int(n)
}

// Raw reads the next n bytes, aliasing the input.
func (r *Reader) Raw(n int) []byte {
	if n > len(r.data) {
		r.fail("%d bytes wanted, %d remain", n, len(r.data))
		return nil
	}
	b := r.data[:n:n]
	r.data = r.data[n:]
	return b
}

// String reads a length-prefixed byte string.
func (r *Reader) String() string { return string(r.Raw(r.Count(1))) }

// Rest returns everything not yet read, aliasing the input, and ends the
// read.
func (r *Reader) Rest() []byte {
	b := r.data
	r.data = nil
	return b
}

// Nodes reads an ascending ID list written by Writer.Nodes.
func (r *Reader) Nodes() []graph.NodeID {
	ids := make([]graph.NodeID, r.Count(1))
	prev := graph.NodeID(0)
	for i := range ids {
		prev += graph.NodeID(r.Uvarint())
		ids[i] = prev
	}
	return ids
}

// NodeSeq reads an ID list written by Writer.NodeSeq.
func (r *Reader) NodeSeq() []graph.NodeID {
	ids := make([]graph.NodeID, r.Count(1))
	for i := range ids {
		ids[i] = graph.NodeID(r.Uvarint())
	}
	return ids
}

// Edge reads one edge written by Writer.Edge against the same prev.
func (r *Reader) Edge(prev graph.Edge) graph.Edge {
	du := r.Uvarint()
	dv := graph.NodeID(r.Uvarint())
	if du == 0 {
		return graph.Edge{U: prev.U, V: prev.V + dv}
	}
	u := prev.U + graph.NodeID(du)
	return graph.Edge{U: u, V: u + dv}
}

// Edges reads a sorted edge list written by Writer.Edges.
func (r *Reader) Edges() []graph.Edge {
	es := make([]graph.Edge, r.Count(2))
	var prev graph.Edge
	for i := range es {
		prev = r.Edge(prev)
		es[i] = prev
	}
	return es
}
