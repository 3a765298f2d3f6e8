package dist

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"github.com/xheal/xheal/internal/core"
	"github.com/xheal/xheal/internal/wire"
)

// FuzzLoadSnapshot: whatever the bytes, LoadSnapshot and RestoreEngine return
// an error wrapping dist.ErrBadSnapshot or core.ErrBadSnapshot, or an engine
// — they never panic — and decoding allocates no more than a small multiple
// of the input. The snapshot of anything that restores is a fixed point.
func FuzzLoadSnapshot(f *testing.F) {
	e := regularEngine(f, 10, 2, 4, 9)
	for _, v := range e.Graph().Nodes()[:4] {
		if err := e.Delete(v); err != nil {
			f.Fatal(err)
		}
	}
	image, err := e.SnapshotState()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(image)
	f.Add(image[:len(image)/2])
	// Both version stamps, a well-formed core header, then 2³⁵ as the graph's
	// node count: a length prefix the input cannot hold.
	var w wire.Writer
	w.Uvarint(core.SnapshotVersion)
	w.Uvarint(core.SnapshotVersion)
	w.Int(4)
	w.Int(9)
	w.Bool(false)
	w.Bool(false)
	w.Uvarint(0)
	w.Uvarint(1 << 35)
	w.Raw(image[len(image)/2:])
	f.Add(w.Bytes())
	f.Add([]byte(`{"version":1,"core":{"version":1}}`)) // a version-1 snapshot was JSON

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
		if snap.RngDraws > 1<<16 || snap.Core.RngDraws > 1<<16 {
			return // restore replays the rng streams draw by draw: an honest cost, not a hang
		}
		eng, err := RestoreEngine(snap)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) && !errors.Is(err, core.ErrBadSnapshot) {
				t.Fatalf("RestoreEngine: %v, want a bad-snapshot error", err)
			}
			return
		}
		canon, err := eng.SnapshotState()
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		snap, err = LoadSnapshot(canon)
		if err != nil {
			t.Fatalf("the restored engine's own snapshot does not load: %v", err)
		}
		if eng, err = RestoreEngine(snap); err != nil {
			t.Fatalf("the restored engine's own snapshot does not restore: %v", err)
		}
		again, _ := eng.SnapshotState()
		eng.Close()
		if !bytes.Equal(canon, again) {
			t.Fatal("the restored engine's own snapshot is not a fixed point")
		}
	})
}
