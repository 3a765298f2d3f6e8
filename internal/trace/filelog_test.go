package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/graph"
)

func insertEvent(n graph.NodeID, nbrs ...graph.NodeID) adversary.Event {
	return adversary.Event{Kind: adversary.Insert, Node: n, Neighbors: nbrs}
}

func filelogFixture(t *testing.T) *graph.Graph {
	t.Helper()
	g0 := graph.New()
	for i := graph.NodeID(1); i <= 4; i++ {
		g0.EnsureNode(i)
	}
	g0.EnsureEdge(1, 2)
	g0.EnsureEdge(2, 3)
	g0.EnsureEdge(3, 4)
	g0.EnsureEdge(4, 1)
	return g0
}

func TestFileLogRotateAndSplice(t *testing.T) {
	dir := t.TempDir()
	g0 := filelogFixture(t)
	fl, err := OpenFileLog(dir, g0, 0, 0, "")
	if err != nil {
		t.Fatalf("OpenFileLog: %v", err)
	}
	next := graph.NodeID(100)
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			if err := fl.Append(insertEvent(next, 1)); err != nil {
				t.Fatalf("append: %v", err)
			}
			next++
		}
	}
	appendN(3)
	if err := fl.Rotate(1, "ckpt-a"); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	appendN(2)
	if err := fl.Rotate(2, "ckpt-b"); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	appendN(4)
	if fl.Events() != 9 {
		t.Fatalf("Events()=%d, want 9", fl.Events())
	}
	if err := fl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	tr, err := LoadLogDir(dir)
	if err != nil {
		t.Fatalf("LoadLogDir: %v", err)
	}
	if tr.BaseEvents != 0 || len(tr.Events) != 9 || tr.TornTail {
		t.Fatalf("spliced base=%d events=%d torn=%v, want 0/9/false",
			tr.BaseEvents, len(tr.Events), tr.TornTail)
	}
	for i, ev := range tr.Events {
		if ev.Node != graph.NodeID(100+i) {
			t.Fatalf("event %d is node %d, want %d (order lost)", i, ev.Node, 100+i)
		}
	}
	if !tr.Initial().Equal(g0) {
		t.Fatal("spliced initial graph differs from genesis")
	}
}

func TestFileLogCompact(t *testing.T) {
	for _, archive := range []bool{false, true} {
		dir := t.TempDir()
		g0 := filelogFixture(t)
		fl, err := OpenFileLog(dir, g0, 0, 0, "")
		if err != nil {
			t.Fatalf("OpenFileLog: %v", err)
		}
		next := graph.NodeID(100)
		for seg := 0; seg < 3; seg++ {
			for i := 0; i < 3; i++ {
				if err := fl.Append(insertEvent(next, 1)); err != nil {
					t.Fatalf("append: %v", err)
				}
				next++
			}
			if err := fl.Rotate(uint64(seg+1), "ckpt"); err != nil {
				t.Fatalf("rotate: %v", err)
			}
		}
		// Segments at bases 0, 3, 6 plus live segment at 9. A checkpoint at
		// event 6 covers segments 0 and 3.
		if err := fl.Compact(6, archive); err != nil {
			t.Fatalf("compact(archive=%v): %v", archive, err)
		}
		bases, _, err := listSegments(dir)
		if err != nil {
			t.Fatalf("list: %v", err)
		}
		if len(bases) != 2 || bases[0] != 6 || bases[1] != 9 {
			t.Fatalf("archive=%v: surviving bases %v, want [6 9]", archive, bases)
		}
		// The surviving tail splices from base 6.
		tail, err := LoadLogDir(dir)
		if err != nil {
			t.Fatalf("LoadLogDir: %v", err)
		}
		if tail.BaseEvents != 6 || len(tail.Events) != 3 {
			t.Fatalf("archive=%v: tail base=%d events=%d, want 6/3",
				archive, tail.BaseEvents, len(tail.Events))
		}
		if archive {
			// Full history is preserved under archive/.
			full, err := LoadFullLog(dir)
			if err != nil {
				t.Fatalf("LoadFullLog: %v", err)
			}
			if full.BaseEvents != 0 || len(full.Events) != 9 {
				t.Fatalf("full base=%d events=%d, want 0/9", full.BaseEvents, len(full.Events))
			}
		} else if _, err := os.Stat(filepath.Join(dir, ArchiveDir)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("delete mode created archive dir (err=%v)", err)
		}
		fl.Close()
	}
}

func TestLoadLogDirDetectsGap(t *testing.T) {
	dir := t.TempDir()
	g0 := filelogFixture(t)
	fl, err := OpenFileLog(dir, g0, 0, 0, "")
	if err != nil {
		t.Fatalf("OpenFileLog: %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := fl.Append(insertEvent(graph.NodeID(100+i), 1)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := fl.Rotate(1, "ckpt"); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if err := fl.Append(insertEvent(200, 1)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := fl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Corrupt the chain: drop two events from the first segment by rewriting
	// it shorter under the same name, so the next segment's base overshoots.
	first := filepath.Join(dir, "events-0000000000000000.log")
	short, err := OpenFileLog(t.TempDir(), g0, 0, 0, "")
	if err != nil {
		t.Fatalf("re-open: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := short.Append(insertEvent(graph.NodeID(100+i), 1)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := short.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(short.Dir(), "events-0000000000000000.log"))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := LoadLogDir(dir); !errors.Is(err, ErrLogGap) {
		t.Fatalf("LoadLogDir on gapped chain: %v, want ErrLogGap", err)
	}
}

func TestFileLogTornSegmentTail(t *testing.T) {
	dir := t.TempDir()
	g0 := filelogFixture(t)
	fl, err := OpenFileLog(dir, g0, 0, 0, "")
	if err != nil {
		t.Fatalf("OpenFileLog: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := fl.Append(insertEvent(graph.NodeID(100+i), 1)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	fl.Close()
	// Simulate a crash mid-append: tear the live segment's final line.
	name := filepath.Join(dir, "events-0000000000000000.log")
	info, err := os.Stat(name)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if err := os.Truncate(name, info.Size()-4); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	tr, err := LoadLogDir(dir)
	if err != nil {
		t.Fatalf("LoadLogDir: %v", err)
	}
	if !tr.TornTail || len(tr.Events) != 2 {
		t.Fatalf("torn load events=%d torn=%v, want 2/true", len(tr.Events), tr.TornTail)
	}
	// The next incarnation anchors at the survived position (2 events) and
	// the chain stays contiguous.
	fl2, err := OpenFileLog(dir, g0, 1, 2, "ckpt")
	if err != nil {
		t.Fatalf("re-open: %v", err)
	}
	if err := fl2.Append(insertEvent(300, 1)); err != nil {
		t.Fatalf("append: %v", err)
	}
	fl2.Close()
	tr2, err := LoadLogDir(dir)
	if err != nil {
		t.Fatalf("LoadLogDir after restart: %v", err)
	}
	if tr2.BaseEvents != 0 || len(tr2.Events) != 3 || !tr2.TornTail {
		t.Fatalf("restart splice base=%d events=%d torn=%v, want 0/3/true",
			tr2.BaseEvents, len(tr2.Events), tr2.TornTail)
	}
}

// recordDirSyncs swaps the directory-fsync seam for one that records which
// directories were synced, for the length of the test.
func recordDirSyncs(t *testing.T) *[]string {
	t.Helper()
	var synced []string
	real := syncDir
	syncDir = func(dir string) {
		synced = append(synced, dir)
		real(dir)
	}
	t.Cleanup(func() { syncDir = real })
	return &synced
}

// A segment's fsync covers its bytes, not its name: creating one must also
// sync the log directory, or the batches acknowledged into it could sit in a
// file no directory lists after a power loss.
func TestOpenFileLogSyncsDirectory(t *testing.T) {
	synced := recordDirSyncs(t)
	dir := t.TempDir()
	fl, err := OpenFileLog(dir, filelogFixture(t), 0, 0, "")
	if err != nil {
		t.Fatalf("OpenFileLog: %v", err)
	}
	defer fl.Close()
	if len(*synced) != 1 || (*synced)[0] != dir {
		t.Fatalf("OpenFileLog synced %v, want [%s]", *synced, dir)
	}
}

func TestRotateSyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	fl, err := OpenFileLog(dir, filelogFixture(t), 0, 0, "")
	if err != nil {
		t.Fatalf("OpenFileLog: %v", err)
	}
	defer fl.Close()
	if err := fl.Append(insertEvent(100, 1)); err != nil {
		t.Fatalf("append: %v", err)
	}
	synced := recordDirSyncs(t)
	if err := fl.Rotate(1, "ckpt"); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if len(*synced) != 1 || (*synced)[0] != dir {
		t.Fatalf("Rotate synced %v, want [%s]", *synced, dir)
	}
}

// Compact renames (or unlinks): both directories it touched are synced, the
// archive first so no crash point leaves a segment in neither, and a
// compaction that moves nothing syncs nothing.
func TestCompactSyncsDirectories(t *testing.T) {
	for _, archive := range []bool{false, true} {
		dir := t.TempDir()
		fl, err := OpenFileLog(dir, filelogFixture(t), 0, 0, "")
		if err != nil {
			t.Fatalf("OpenFileLog: %v", err)
		}
		for seg := 0; seg < 2; seg++ {
			if err := fl.Append(insertEvent(graph.NodeID(100+seg), 1)); err != nil {
				t.Fatalf("append: %v", err)
			}
			if err := fl.Rotate(uint64(seg+1), "ckpt"); err != nil {
				t.Fatalf("rotate: %v", err)
			}
		}
		synced := recordDirSyncs(t)
		if err := fl.Compact(0, archive); err != nil {
			t.Fatalf("compact nothing: %v", err)
		}
		if len(*synced) != 0 {
			t.Fatalf("archive=%v: a compaction that moved nothing synced %v", archive, *synced)
		}
		if err := fl.Compact(2, archive); err != nil {
			t.Fatalf("compact: %v", err)
		}
		want := []string{dir}
		if archive {
			want = []string{filepath.Join(dir, ArchiveDir), dir}
		}
		if !slices.Equal(*synced, want) {
			t.Fatalf("archive=%v: Compact synced %v, want %v", archive, *synced, want)
		}
		fl.Close()
	}
}

// Only the segment that starts the run carries the genesis graph: a segment
// opened or rotated at base > 0 holds its anchors alone, however large the
// genesis, and a rotate at event 0 keeps the genesis segment it has.
func TestAnchoredSegmentHeaderOmitsGenesis(t *testing.T) {
	dir := t.TempDir()
	g0 := graph.New()
	for i := graph.NodeID(0); i < 2000; i++ {
		g0.EnsureEdge(i, i+1)
	}
	fl, err := OpenFileLog(dir, g0, 0, 0, "")
	if err != nil {
		t.Fatalf("OpenFileLog: %v", err)
	}
	if err := fl.Rotate(0, "ckpt-at-zero"); err != nil {
		t.Fatalf("rotate at event 0: %v", err)
	}
	if err := fl.Append(insertEvent(5000, 1)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := fl.Rotate(1, "ckpt"); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if err := fl.Append(insertEvent(5001, 1)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := fl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	genesisSeg, err := os.Stat(filepath.Join(dir, "events-0000000000000000.log"))
	if err != nil {
		t.Fatal(err)
	}
	anchored, err := os.ReadFile(filepath.Join(dir, "events-0000000000000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(anchored) > 300 || genesisSeg.Size() < 10_000 {
		t.Fatalf("anchored segment is %d bytes, genesis segment %d: the anchored header should hold anchors only",
			len(anchored), genesisSeg.Size())
	}
	seg, err := Load(bytes.NewReader(anchored))
	if err != nil {
		t.Fatalf("load anchored segment: %v", err)
	}
	if seg.BaseEvents != 1 || seg.BaseTick != 1 || seg.Checkpoint != "ckpt" || len(seg.Nodes)+len(seg.Edges) != 0 || len(seg.Events) != 1 {
		t.Fatalf("anchored segment: base=%d tick=%d ckpt=%q nodes=%d edges=%d events=%d",
			seg.BaseEvents, seg.BaseTick, seg.Checkpoint, len(seg.Nodes), len(seg.Edges), len(seg.Events))
	}
	full, err := LoadLogDir(dir)
	if err != nil {
		t.Fatalf("LoadLogDir: %v", err)
	}
	if len(full.Events) != 2 || !full.Initial().Equal(g0) {
		t.Fatalf("spliced log: %d events, genesis intact: %v", len(full.Events), full.Initial().Equal(g0))
	}
}
