package wire

import (
	"errors"
	"slices"
	"testing"

	"github.com/xheal/xheal/internal/graph"
)

// Every value round-trips, including lists that break the ordering the delta
// coding is tuned for: differences are taken modulo 2⁶⁴.
func TestRoundTrip(t *testing.T) {
	ascending := []graph.NodeID{0, 1, 5, 1 << 20, 1<<20 + 1}
	unordered := []graph.NodeID{9, 3, -4, 3, 1 << 40}
	edges := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 7}, {U: 2, V: 3}, {U: 2, V: 2}, {U: -5, V: 1 << 33}}

	var w Writer
	w.Uvarint(1<<64 - 1)
	w.Int(-1 << 63)
	w.Bool(true)
	w.String("core")
	w.Nodes(ascending)
	w.Nodes(unordered)
	w.NodeSeq(unordered)
	w.Edges(edges)
	w.Nodes(nil)
	w.Raw([]byte{0xAB})

	r := NewReader(w.Bytes())
	if v := r.Uvarint(); v != 1<<64-1 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Int(); v != -1<<63 {
		t.Errorf("Int = %d", v)
	}
	if !r.Bool() || r.String() != "core" {
		t.Error("Bool/String")
	}
	if got := r.Nodes(); !slices.Equal(got, ascending) {
		t.Errorf("ascending Nodes = %v", got)
	}
	if got := r.Nodes(); !slices.Equal(got, unordered) {
		t.Errorf("unordered Nodes = %v", got)
	}
	if got := r.NodeSeq(); !slices.Equal(got, unordered) {
		t.Errorf("NodeSeq = %v", got)
	}
	if got := r.Edges(); !slices.Equal(got, edges) {
		t.Errorf("Edges = %v", got)
	}
	if got := r.Nodes(); len(got) != 0 {
		t.Errorf("empty Nodes = %v", got)
	}
	if got := r.Rest(); len(got) != 1 || got[0] != 0xAB {
		t.Errorf("Rest = %v", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	// An ascending list of small gaps costs a byte an element.
	var dense Writer
	dense.Nodes([]graph.NodeID{1 << 20, 1<<20 + 1, 1<<20 + 2, 1<<20 + 100})
	if n := len(dense.Bytes()); n != 1+3+3 {
		t.Errorf("4 dense IDs near 2²⁰ took %d bytes, want 7", n)
	}
}

// A length prefix the input cannot hold is refused before anything is
// allocated for it, and the failure sticks.
func TestReaderRefusesInflatedLengths(t *testing.T) {
	var w Writer
	w.Uvarint(1 << 40) // a node count
	w.Uvarint(7)
	for name, read := range map[string]func(*Reader){
		"Nodes":   func(r *Reader) { r.Nodes() },
		"NodeSeq": func(r *Reader) { r.NodeSeq() },
		"Edges":   func(r *Reader) { r.Edges() },
		"String":  func(r *Reader) { _ = r.String() },
	} {
		r := NewReader(w.Bytes())
		if allocs := testing.AllocsPerRun(1, func() { read(r) }); allocs > 4 {
			t.Errorf("%s: %v allocations on an inflated length", name, allocs)
		}
		if !errors.Is(r.Err(), ErrMalformed) {
			t.Errorf("%s: Err = %v, want ErrMalformed", name, r.Err())
		}
		if r.Uvarint() != 0 || r.Count(1) != 0 || len(r.Nodes()) != 0 || !errors.Is(r.Done(), ErrMalformed) {
			t.Errorf("%s: reads after a failure must return zero and keep the error", name)
		}
	}
	for _, data := range [][]byte{nil, {0x80}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}} {
		r := NewReader(data)
		if r.Uvarint(); !errors.Is(r.Err(), ErrMalformed) {
			t.Errorf("Uvarint(%x): Err = %v, want ErrMalformed", data, r.Err())
		}
	}
	if r := NewReader([]byte{2}); r.Bool() || !errors.Is(r.Err(), ErrMalformed) {
		t.Error("Bool(2) accepted")
	}
	if r := NewReader([]byte{0, 0}); r.Uvarint() != 0 || !errors.Is(r.Done(), ErrMalformed) {
		t.Error("trailing byte accepted by Done")
	}
}
