package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"github.com/xheal/xheal/internal/wire"
)

// fuzzSnapshotImage is a real image: a state with clouds, bridge links and a
// non-trivial rng position.
func fuzzSnapshotImage(f *testing.F) []byte {
	cfg := Config{Kappa: 4, Seed: 5}
	s, err := NewState(cfg, cycle(12))
	if err != nil {
		f.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		if err := s.DeleteNode(cycle(12).Nodes()[2*v]); err != nil {
			f.Fatal(err)
		}
	}
	data, err := s.SnapshotState()
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzLoadSnapshot: whatever the bytes, LoadSnapshot and RestoreState return
// ErrBadSnapshot or a state — they never panic — and decoding allocates no
// more than a small multiple of the input, because every length prefix is
// checked against the bytes that remain before it is believed. The snapshot
// of anything that restores is a fixed point: it loads, restores and encodes
// to itself.
func FuzzLoadSnapshot(f *testing.F) {
	image := fuzzSnapshotImage(f)
	f.Add(image)
	f.Add(image[:len(image)/2])
	// A well-formed header, then 2³⁵ as the graph's node count: a length
	// prefix the input cannot hold.
	var w wire.Writer
	w.Uvarint(SnapshotVersion)
	w.Int(4)
	w.Int(5)
	w.Bool(false)
	w.Bool(false)
	w.Uvarint(0)
	w.Uvarint(1 << 35)
	w.Raw(image[len(image)/2:])
	f.Add(w.Bytes())
	f.Add([]byte(`{"version":1,"kappa":4}`)) // a version-1 snapshot was JSON

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap, err := LoadSnapshot(data)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(data)+1<<16); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d, more than %d", len(data), grew, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("LoadSnapshot: %v, want ErrBadSnapshot", err)
			}
			return
		}
		if snap.RngDraws > 1<<16 {
			return // restore replays the rng stream draw by draw: an honest cost, not a hang
		}
		st, err := RestoreState(snap)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("RestoreState: %v, want ErrBadSnapshot", err)
			}
			return
		}
		canon, err := st.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		snap, err = LoadSnapshot(canon)
		if err != nil {
			t.Fatalf("the restored state's own snapshot does not load: %v", err)
		}
		if st, err = RestoreState(snap); err != nil {
			t.Fatalf("the restored state's own snapshot does not restore: %v", err)
		}
		if again, _ := st.SnapshotState(); !bytes.Equal(canon, again) {
			t.Fatal("the restored state's own snapshot is not a fixed point")
		}
	})
}
