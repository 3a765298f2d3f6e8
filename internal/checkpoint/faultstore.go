package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ErrInjected marks a failure produced by a FaultStore rather than the
// filesystem. Callers under test treat it like any I/O error.
var ErrInjected = errors.New("checkpoint: injected fault")

// Fault is one scripted failure mode.
type Fault int

const (
	// FaultNone performs the operation normally.
	FaultNone Fault = iota
	// FaultTornWrite leaves a half-written checkpoint at the *final* path —
	// the wreckage a crash leaves when a writer skips the rename dance — and
	// reports failure. Recovery must skip the torn file.
	FaultTornWrite
	// FaultKillAtSync simulates dying at fsync time: the full payload is
	// written to a temp file that is never renamed. No new checkpoint
	// becomes visible; the previous one must still load.
	FaultKillAtSync
	// FaultShortRead truncates the newest checkpoint file in place before
	// the read, simulating a torn tail at rest. Load must fall back to an
	// older checkpoint (or report ErrNotFound if none survives).
	FaultShortRead
)

// FaultStore wraps a FileStore and injects scripted faults, one per call:
// the i-th Save consumes SaveScript[i], the i-th Load consumes LoadScript[i]
// (FaultNone past the end of a script). It exists so crash-recovery tests
// exercise the exact failure shapes the atomic-rename protocol claims to
// survive, deterministically rather than by racing a real SIGKILL.
type FaultStore struct {
	fs         *FileStore
	SaveScript []Fault
	LoadScript []Fault
	saves      int
	loads      int
}

// NewFaultStore wraps fs.
func NewFaultStore(fs *FileStore) *FaultStore { return &FaultStore{fs: fs} }

func nextFault(script []Fault, n int) Fault {
	if n < len(script) {
		return script[n]
	}
	return FaultNone
}

// Save applies the next scripted save fault.
func (f *FaultStore) Save(c *Checkpoint) error {
	fault := nextFault(f.SaveScript, f.saves)
	f.saves++
	switch fault {
	case FaultTornWrite:
		data := append(c.header(), c.State...)
		final := filepath.Join(f.fs.dir, c.Name())
		if err := os.WriteFile(final, data[:len(data)/2], 0o644); err != nil {
			return fmt.Errorf("checkpoint: torn write: %w", err)
		}
		return fmt.Errorf("%w: torn write of %s", ErrInjected, filepath.Base(final))
	case FaultKillAtSync:
		data := append(c.header(), c.State...)
		tmp, err := os.CreateTemp(f.fs.dir, tmpPrefix+"*")
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		_, werr := tmp.Write(data)
		tmp.Close()
		if werr != nil {
			return fmt.Errorf("checkpoint: %w", werr)
		}
		return fmt.Errorf("%w: killed at fsync before rename", ErrInjected)
	default:
		return f.fs.Save(c)
	}
}

// Load applies the next scripted load fault, then delegates.
func (f *FaultStore) Load() (*Checkpoint, error) {
	fault := nextFault(f.LoadScript, f.loads)
	f.loads++
	if fault == FaultShortRead {
		if names, err := f.fs.list(); err == nil && len(names) > 0 {
			newest := filepath.Join(f.fs.dir, names[len(names)-1])
			if info, err := os.Stat(newest); err == nil && info.Size() > 0 {
				_ = os.Truncate(newest, info.Size()/3)
			}
		}
	}
	return f.fs.Load()
}
