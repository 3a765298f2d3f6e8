package checkpoint

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// FuzzDecodeFile: whatever a checkpoint file holds, decoding it returns a
// verified checkpoint or ErrCorrupt — it never panics — and allocates next to
// nothing: the state is served from the file's own bytes.
func FuzzDecodeFile(f *testing.F) {
	c := mkCheckpoint(7, 448, "the engine's state bytes, opaque to the store")
	c.Genesis = "0f4c"
	c.Seal()
	image := append(c.header(), c.State...)
	f.Add(image)
	f.Add(image[:len(image)-9])
	// The state length inflated to 2⁴⁰: a prefix the file cannot hold.
	header := c.header()
	inflated := append(header[:len(header)-1:len(header)-1], 0x80, 0x80, 0x80, 0x80, 0x80, 0x20)
	f.Add(append(inflated, c.State...))
	f.Add([]byte(`{"version":1,"tick":7,"events":448,"state":{},"checksum":""}`)) // a v1 file

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := decodeFile(data)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(data)+1<<16); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d, more than %d", len(data), grew, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decodeFile: %v, want ErrCorrupt", err)
			}
			return
		}
		if err := got.Verify(); err != nil {
			t.Fatalf("decodeFile returned a checkpoint that does not verify: %v", err)
		}
		if !bytes.HasSuffix(data, got.State) {
			t.Fatal("the decoded state is not the file's tail")
		}
	})
}
