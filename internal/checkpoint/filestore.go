package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// filePrefix and fileSuffix frame checkpoint filenames. The zero-padded
// tick/event watermarks in between make lexicographic order equal recovery
// order, so Load can scan newest-first without parsing every file. The
// suffix is the format's: version-1 files end in .json and are not listed.
const (
	filePrefix = "ckpt-"
	fileSuffix = ".bin"
	// tmpPrefix names in-flight temp files; a crash between CreateTemp and
	// rename orphans one, so NewFileStore sweeps leftovers at open.
	tmpPrefix = ".tmp-ckpt-"
)

// FileStore persists each checkpoint as its own file under a directory,
// written with the temp-file + fsync + atomic-rename sequence: a crash at any
// instant leaves either the previous checkpoint set or the new one. Load
// scans newest-first and skips files that fail to parse or verify, so one
// torn write never blocks recovery — the previous checkpoint still restores.
//
// FileStore is not safe for concurrent use; the server serializes access
// through its tick loop.
type FileStore struct {
	dir  string
	keep int // retained checkpoint files; older ones pruned after each Save
}

// NewFileStore opens (creating if needed) a checkpoint directory. keep bounds
// how many checkpoint files survive pruning; values below 2 are raised to 2
// so there is always a fallback if the newest file is torn.
func NewFileStore(dir string, keep int) (*FileStore, error) {
	if keep < 2 {
		keep = 2
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	// Sweep temp files orphaned by a crash mid-Save: nothing references them
	// (list filters them out), so left alone they accumulate forever across
	// crash/restart cycles. Best-effort, like prune.
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), tmpPrefix) {
				_ = os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	return &FileStore{dir: dir, keep: keep}, nil
}

// Dir returns the store's directory.
func (f *FileStore) Dir() string { return f.dir }

// Save writes c durably: temp file in the same directory (the header, then
// the state bytes as they are — nothing is re-encoded), fsync, rename to the
// final name, fsync the directory so the rename itself is durable, then prune
// old checkpoints beyond the retention count.
func (f *FileStore) Save(c *Checkpoint) error {
	if err := c.Verify(); err != nil {
		return err
	}
	final := filepath.Join(f.dir, c.Name())
	tmp, err := os.CreateTemp(f.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { _ = os.Remove(tmpName) }
	if _, err := tmp.Write(c.header()); err == nil {
		_, err = tmp.Write(c.State)
	}
	if err != nil {
		tmp.Close()
		cleanup()
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		cleanup()
		return fmt.Errorf("checkpoint: fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	if err := os.Rename(tmpName, final); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	syncDir(f.dir)
	f.prune()
	return nil
}

// Load returns the newest checkpoint that parses and verifies, skipping
// corrupt files (a torn newest file falls back to its predecessor).
func (f *FileStore) Load() (*Checkpoint, error) {
	names, err := f.list()
	if err != nil {
		return nil, err
	}
	for i := len(names) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(f.dir, names[i]))
		if err != nil {
			continue
		}
		if c, err := decodeFile(data); err == nil {
			return c, nil
		}
	}
	return nil, ErrNotFound
}

// list returns checkpoint filenames in ascending (oldest-first) order.
func (f *FileStore) list() ([]string, error) {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() && strings.HasPrefix(name, filePrefix) && strings.HasSuffix(name, fileSuffix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// prune removes checkpoint files beyond the retention count, oldest first.
// Best-effort: pruning failures never fail a Save.
func (f *FileStore) prune() {
	names, err := f.list()
	if err != nil || len(names) <= f.keep {
		return
	}
	for _, name := range names[:len(names)-f.keep] {
		_ = os.Remove(filepath.Join(f.dir, name))
	}
}

// syncDir fsyncs a directory so a completed rename survives power loss.
// Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
