package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mkCheckpoint(tick, events uint64, payload string) *Checkpoint {
	c := &Checkpoint{
		Version: Version,
		Tick:    tick,
		Events:  events,
		Engine:  "core",
		Kappa:   4,
		Seed:    7,
		State:   []byte(payload),
	}
	c.Seal()
	return c
}

func TestVerifyCatchesTampering(t *testing.T) {
	c := mkCheckpoint(3, 12, `{"x":1}`)
	if err := c.Verify(); err != nil {
		t.Fatalf("fresh checkpoint: %v", err)
	}
	c.State = []byte(`{"x":2}`)
	if err := c.Verify(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered state: %v, want ErrCorrupt", err)
	}
	c = mkCheckpoint(3, 12, `{"x":1}`)
	c.Version = 9
	if err := c.Verify(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad version: %v, want ErrCorrupt", err)
	}
}

func TestMemStoreRoundTrip(t *testing.T) {
	m := NewMemStore()
	if _, err := m.Load(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("empty load: %v, want ErrNotFound", err)
	}
	c := mkCheckpoint(1, 4, `{"a":1}`)
	if err := m.Save(c); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := m.Load()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Tick != 1 || got.Events != 4 || string(got.State) != `{"a":1}` {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// Loaded copies must not alias the stored state.
	got.State[2] = 'b'
	again, _ := m.Load()
	if string(again.State) != `{"a":1}` {
		t.Fatal("Load returned aliased state")
	}
}

func TestFileStoreRoundTripAndPrune(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir, 2)
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	if _, err := fs.Load(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("empty load: %v, want ErrNotFound", err)
	}
	for i := uint64(1); i <= 5; i++ {
		if err := fs.Save(mkCheckpoint(i, i*10, `{"n":`+strings.Repeat("1", int(i))+`}`)); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	got, err := fs.Load()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Tick != 5 || got.Events != 50 {
		t.Fatalf("loaded tick=%d events=%d, want 5/50", got.Tick, got.Events)
	}
	names, err := fs.list()
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(names) != 2 {
		t.Fatalf("retained %d files, want 2 (%v)", len(names), names)
	}
}

// A crash between CreateTemp and rename orphans a temp file; reopening the
// store must sweep such leftovers so they don't accumulate across crash
// cycles, while leaving real checkpoints alone.
func TestFileStoreSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir, 2)
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	if err := fs.Save(mkCheckpoint(1, 4, `{"a":1}`)); err != nil {
		t.Fatalf("save: %v", err)
	}
	for _, name := range []string{tmpPrefix + "111", tmpPrefix + "222"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatalf("plant %s: %v", name, err)
		}
	}
	if _, err := NewFileStore(dir, 2); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Fatalf("stale temp file %s survived reopen", e.Name())
		}
	}
	if got, err := fs.Load(); err != nil || got.Tick != 1 {
		t.Fatalf("checkpoint lost by sweep: %+v, %v", got, err)
	}
}

func TestFileStoreSkipsCorruptNewest(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir, 3)
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	if err := fs.Save(mkCheckpoint(1, 10, `{"good":true}`)); err != nil {
		t.Fatalf("save: %v", err)
	}
	if err := fs.Save(mkCheckpoint(2, 20, `{"good":true}`)); err != nil {
		t.Fatalf("save: %v", err)
	}
	// Tear the newest file byte-by-byte shorter; every truncation must fall
	// back to checkpoint 1, never error, never return garbage.
	names, _ := fs.list()
	newest := filepath.Join(dir, names[len(names)-1])
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	for cut := len(data) - 1; cut >= 0; cut -= 7 {
		if err := os.WriteFile(newest, data[:cut], 0o644); err != nil {
			t.Fatalf("truncate to %d: %v", cut, err)
		}
		got, err := fs.Load()
		if err != nil {
			t.Fatalf("cut=%d: load: %v", cut, err)
		}
		if got.Tick != 1 {
			t.Fatalf("cut=%d: loaded tick %d, want fallback to 1", cut, got.Tick)
		}
	}
}

func TestFaultStoreTornWrite(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir, 3)
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	fst := NewFaultStore(fs)
	fst.SaveScript = []Fault{FaultNone, FaultTornWrite}
	if err := fst.Save(mkCheckpoint(1, 10, `{"ok":1}`)); err != nil {
		t.Fatalf("save 1: %v", err)
	}
	if err := fst.Save(mkCheckpoint(2, 20, `{"ok":2}`)); !errors.Is(err, ErrInjected) {
		t.Fatalf("save 2: %v, want ErrInjected", err)
	}
	// The torn file exists at the final path but must be skipped on load.
	if names, _ := fs.list(); len(names) != 2 {
		t.Fatalf("expected torn file on disk, got %v", names)
	}
	got, err := fst.Load()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Tick != 1 {
		t.Fatalf("loaded tick %d, want 1 (torn 2 skipped)", got.Tick)
	}
}

func TestFaultStoreKillAtSync(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir, 3)
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	fst := NewFaultStore(fs)
	fst.SaveScript = []Fault{FaultNone, FaultKillAtSync}
	if err := fst.Save(mkCheckpoint(1, 10, `{"ok":1}`)); err != nil {
		t.Fatalf("save 1: %v", err)
	}
	if err := fst.Save(mkCheckpoint(2, 20, `{"ok":2}`)); !errors.Is(err, ErrInjected) {
		t.Fatalf("save 2: %v, want ErrInjected", err)
	}
	// Only the temp file was written; no new checkpoint is visible.
	if names, _ := fs.list(); len(names) != 1 {
		t.Fatalf("expected 1 checkpoint file, got %v", names)
	}
	got, err := fst.Load()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Tick != 1 {
		t.Fatalf("loaded tick %d, want 1", got.Tick)
	}
}

func TestFaultStoreShortRead(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir, 3)
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	fst := NewFaultStore(fs)
	fst.LoadScript = []Fault{FaultShortRead, FaultShortRead}
	if err := fst.Save(mkCheckpoint(1, 10, `{"ok":1}`)); err != nil {
		t.Fatalf("save 1: %v", err)
	}
	if err := fst.Save(mkCheckpoint(2, 20, `{"ok":2}`)); err != nil {
		t.Fatalf("save 2: %v", err)
	}
	// First load: newest (tick 2) is truncated in place → falls back to 1.
	got, err := fst.Load()
	if err != nil {
		t.Fatalf("load 1: %v", err)
	}
	if got.Tick != 1 {
		t.Fatalf("loaded tick %d, want 1", got.Tick)
	}
	// Second load truncates tick 1 as well (it is now the newest intact
	// file after 2 was torn — list order still has 2 last, already torn, so
	// the fault tears it further; 1 must still load).
	if _, err := fst.Load(); err != nil && !errors.Is(err, ErrNotFound) {
		t.Fatalf("load 2: %v", err)
	}
}

// A file carries every envelope field, and the state byte for byte.
func TestFileStoreRoundTripsEveryField(t *testing.T) {
	fs, err := NewFileStore(t.TempDir(), 2)
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	want := &Checkpoint{
		Version: Version, Tick: 1 << 40, Events: 1<<41 + 3,
		Engine: "dist", Kappa: 6, Seed: -7, Genesis: "9a3f",
		State: []byte{0, 1, 2, 0xff, 0x80, 0},
	}
	want.Seal()
	if err := fs.Save(want); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := fs.Load()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Version != want.Version || got.Tick != want.Tick || got.Events != want.Events ||
		got.Engine != want.Engine || got.Kappa != want.Kappa || got.Seed != want.Seed ||
		got.Genesis != want.Genesis || got.Checksum != want.Checksum || string(got.State) != string(want.State) {
		t.Fatalf("loaded %+v, saved %+v", got, want)
	}
	info, err := os.Stat(filepath.Join(fs.Dir(), want.Name()))
	if err != nil {
		t.Fatal(err)
	}
	if over := info.Size() - int64(len(want.State)); over > 96 {
		t.Fatalf("the file is %d bytes larger than the state it holds: the header should be small", over)
	}
}

// Version-1 files (JSON, .json) are not checkpoints to this store: never
// loaded — even when they are all there is — and never pruned.
func TestFileStoreIgnoresV1Files(t *testing.T) {
	dir := t.TempDir()
	v1 := filepath.Join(dir, "ckpt-0000000000000009-0000000000000090.json")
	if err := os.WriteFile(v1, []byte(`{"version":1,"tick":9,"events":90,"state":{},"checksum":""}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := NewFileStore(dir, 2)
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	if _, err := fs.Load(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("load with only a v1 file: %v, want ErrNotFound", err)
	}
	for i := uint64(1); i <= 4; i++ {
		if err := fs.Save(mkCheckpoint(i, i*10, "state")); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	if got, err := fs.Load(); err != nil || got.Tick != 4 {
		t.Fatalf("load: %+v, %v; want tick 4 (the v1 file names tick 9)", got, err)
	}
	if _, err := os.Stat(v1); err != nil {
		t.Fatalf("the v1 file was pruned: %v", err)
	}
}
