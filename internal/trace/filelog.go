package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/graph"
)

// This file is the durable, segmented form of the event log. A FileLog owns a
// directory of segment files named events-<base>.log, where <base> is the
// number of events in the run before the segment's first event. Each segment
// is an anchored JSONL log (header via NewLogWriterAt, one event per line);
// only the base-0 segment's header carries the genesis graph.
// The server rotates to a fresh segment right after each checkpoint, so
// compaction is simply: delete (or archive) every segment fully covered by
// the latest checkpoint. Recovery replays only the surviving tail.
//
// Durability of names: a file's fsync makes its bytes durable, not its
// directory entry. Every step that creates or moves a segment therefore also
// fsyncs the directories it touched (syncDir), or a power loss could leave
// acknowledged events in a segment no directory lists.

// ArchiveDir is the subdirectory compacted segments move to when retained.
const ArchiveDir = "archive"

const (
	segPrefix = "events-"
	segSuffix = ".log"
)

// ErrLogGap reports that the segment chain is not contiguous: some segment's
// events are missing between two surviving files.
var ErrLogGap = fmt.Errorf("trace: gap in log segments")

// FileLog is an append-only event log split into checkpoint-anchored segment
// files. Not safe for concurrent use; internal/server appends from its single
// tick loop.
type FileLog struct {
	dir    string
	f      *os.File
	lw     *LogWriter
	base   uint64 // events in the run before the current segment
	events uint64 // events appended to the current segment
}

// OpenFileLog opens (creating if needed) a log directory and starts a fresh
// segment anchored after baseEvents events; g0, the genesis graph, is written
// into the header of a base-0 segment and not retained. A fresh segment is
// always started — never appended to an existing file — so a torn tail left
// by a crash is sealed in its old segment and tolerated once at load, not
// compounded. An existing segment at the same base is overwritten: it can
// only exist if the previous incarnation logged no surviving events past the
// base, so its content is already covered.
func OpenFileLog(dir string, g0 *graph.Graph, baseTick, baseEvents uint64, checkpoint string) (*FileLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	f, lw, err := createSegment(dir, g0, baseTick, baseEvents, checkpoint)
	if err != nil {
		return nil, err
	}
	return &FileLog{dir: dir, f: f, lw: lw, base: baseEvents}, nil
}

// createSegment creates (truncating) the segment file for base, writes its
// header and makes both durable: the file's bytes, so a power loss before
// the first batch leaves a loadable (empty) segment rather than a torn one,
// and the directory entry, so the batches fsynced into it later are
// reachable.
func createSegment(dir string, g0 *graph.Graph, tick, base uint64, checkpoint string) (*os.File, *LogWriter, error) {
	name := filepath.Join(dir, fmt.Sprintf("%s%016d%s", segPrefix, base, segSuffix))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("trace: %w", err)
	}
	lw, err := NewLogWriterAt(f, g0, tick, base, checkpoint)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("trace: sync header: %w", err)
	}
	syncDir(dir)
	return f, lw, nil
}

// syncDir fsyncs a directory so entries created in, renamed into or removed
// from it survive power loss. Best-effort: some filesystems reject directory
// fsync. A variable so tests can record which directories were synced.
var syncDir = func(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// Dir returns the log directory.
func (fl *FileLog) Dir() string { return fl.dir }

// Append writes one adversary event to the current segment.
func (fl *FileLog) Append(ev adversary.Event) error {
	if err := fl.lw.Append(ev); err != nil {
		return err
	}
	fl.events++
	return nil
}

// Events returns the total run position: base + events in this segment.
func (fl *FileLog) Events() uint64 { return fl.base + fl.events }

// Sync flushes the live segment to stable storage. The server calls it once
// per applied batch, before acknowledging the batch, so acknowledged events
// survive power loss as well as process crashes.
func (fl *FileLog) Sync() error {
	if err := fl.f.Sync(); err != nil {
		return fmt.Errorf("trace: log sync: %w", err)
	}
	return nil
}

// Rotate seals the current segment and starts a fresh one anchored at the
// current position, recording the checkpoint that covers everything before
// it. Called by the server right after each successful checkpoint. A log
// still at event 0 keeps its segment: that one holds the genesis header,
// which only OpenFileLog's caller can supply, and it is empty already.
func (fl *FileLog) Rotate(tick uint64, checkpoint string) error {
	base := fl.base + fl.events
	if base == 0 {
		return nil
	}
	if err := fl.f.Close(); err != nil {
		return fmt.Errorf("trace: rotate close: %w", err)
	}
	f, lw, err := createSegment(fl.dir, nil, tick, base, checkpoint)
	if err != nil {
		return fmt.Errorf("trace: rotate: %w", err)
	}
	fl.f, fl.lw, fl.base, fl.events = f, lw, base, 0
	return nil
}

// Compact removes every sealed segment fully covered by a checkpoint at
// beforeEvents: a segment is dropped when the next segment starts at or
// before the watermark. With archive=true, dropped segments move to the
// archive/ subdirectory (preserving from-genesis replay for recovery
// verification) instead of being deleted. The live segment never moves.
func (fl *FileLog) Compact(beforeEvents uint64, archive bool) error {
	bases, names, err := listSegments(fl.dir)
	if err != nil {
		return err
	}
	var archiveDir string
	if archive {
		archiveDir = filepath.Join(fl.dir, ArchiveDir)
		if err := os.MkdirAll(archiveDir, 0o755); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	moved := false
	// Whatever moved before an error is synced too: the archive entry first,
	// so power loss cannot leave a segment in neither directory.
	defer func() {
		if !moved {
			return
		}
		if archive {
			syncDir(archiveDir)
		}
		syncDir(fl.dir)
	}()
	for i := 0; i+1 < len(bases); i++ {
		if bases[i+1] > beforeEvents || bases[i] >= fl.base {
			continue
		}
		src := filepath.Join(fl.dir, names[i])
		if archive {
			if err := os.Rename(src, filepath.Join(archiveDir, names[i])); err != nil {
				return fmt.Errorf("trace: archive segment: %w", err)
			}
		} else if err := os.Remove(src); err != nil {
			return fmt.Errorf("trace: drop segment: %w", err)
		}
		moved = true
	}
	return nil
}

// Close seals the current segment and closes its file.
func (fl *FileLog) Close() error {
	if err := fl.lw.Close(); err != nil {
		return err
	}
	return fl.f.Close()
}

// listSegments returns segment bases and filenames in ascending base order.
func listSegments(dir string) ([]uint64, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("trace: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() && strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix) {
			names = append(names, name)
		}
	}
	sort.Strings(names) // zero-padded bases: lexicographic == numeric
	bases := make([]uint64, len(names))
	for i, name := range names {
		num := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		base, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("trace: segment name %q: %w", name, err)
		}
		bases[i] = base
	}
	return bases, names, nil
}

// LoadLogDir loads the surviving (non-archived) segments of a log directory
// and splices them into one trace: Nodes/Edges from the first segment's
// header, BaseEvents = the first segment's base, Events concatenated in
// order. Each segment tolerates its own torn tail — a crash seals a segment
// mid-line and the next incarnation's base counts only the events that
// survived, so the chain stays contiguous; a gap between segments is
// corruption and fails with ErrLogGap. TornTail is set if any segment was
// torn.
func LoadLogDir(dir string) (*Trace, error) {
	_, names, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	paths := make([]string, len(names))
	for i, name := range names {
		paths[i] = filepath.Join(dir, name)
	}
	return spliceSegments(paths)
}

// LoadFullLog loads archived and live segments together — the from-genesis
// event history, available while compaction runs in archive mode.
func LoadFullLog(dir string) (*Trace, error) {
	var paths []string
	archiveDir := filepath.Join(dir, ArchiveDir)
	if _, err := os.Stat(archiveDir); err == nil {
		_, names, err := listSegments(archiveDir)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			paths = append(paths, filepath.Join(archiveDir, name))
		}
	}
	_, names, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		paths = append(paths, filepath.Join(dir, name))
	}
	// Archived and live segments can overlap in name order only at the
	// boundary; sort by base across the merged list.
	sort.Slice(paths, func(i, j int) bool { return filepath.Base(paths[i]) < filepath.Base(paths[j]) })
	return spliceSegments(paths)
}

func spliceSegments(paths []string) (*Trace, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("trace: %w: no segments", os.ErrNotExist)
	}
	var out *Trace
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		t, err := Load(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("trace: segment %s: %w", filepath.Base(path), err)
		}
		if out == nil {
			out = t
			continue
		}
		want := out.BaseEvents + uint64(len(out.Events))
		if t.BaseEvents != want {
			return nil, fmt.Errorf("%w: segment %s starts at %d, want %d",
				ErrLogGap, filepath.Base(path), t.BaseEvents, want)
		}
		out.Events = append(out.Events, t.Events...)
		out.TornTail = out.TornTail || t.TornTail
	}
	return out, nil
}
