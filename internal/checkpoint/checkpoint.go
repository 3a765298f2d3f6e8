// Package checkpoint persists engine snapshots so a crashed daemon can
// recover without replaying its event log from genesis. A Checkpoint pairs an
// opaque engine snapshot (the deterministic binary form produced by
// core.SnapshotState / dist.SnapshotState) with the watermarks needed to
// resume serving: the tick and event counts at capture time. Stores are
// deliberately dumb — they hold bytes and watermarks; what the bytes mean is
// the engine's business.
//
// Two implementations ship: MemStore for tests, and FileStore, which writes
// each checkpoint to its own file via the temp-file + fsync + atomic-rename
// dance so a crash at any instant leaves either the old checkpoint set or the
// new one, never a torn file that parses. FaultStore wraps a FileStore and
// injects the failures the rename dance is supposed to survive — torn writes,
// short reads, kills at fsync time — so recovery paths are tested against the
// crashes they claim to handle.
//
// A checkpoint file (format version 2, ckpt-<tick>-<events>.bin) is a small
// binary header followed by the state bytes exactly as the engine produced
// them, so an image is encoded once and loading one parses a few dozen bytes:
//
//	"XHCK"                      magic
//	uvarint  version            2
//	uvarint  tick, events       watermarks
//	string   engine             uvarint length + bytes
//	varint   kappa, seed
//	string   genesis            digest, may be empty
//	[32]byte sha256(state)
//	uvarint  len(state)         must equal the bytes that remain
//	state
//
// Version-1 files (ckpt-*.json, one JSON envelope re-encoding a JSON state)
// are not checkpoints to this package: FileStore neither loads nor prunes
// them, so a directory holding only v1 files recovers from the event log.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"github.com/xheal/xheal/internal/wire"
)

// Version identifies the checkpoint envelope schema.
const Version = 2

// fileMagic opens every checkpoint file.
const fileMagic = "XHCK"

// ErrNotFound reports that a store holds no usable checkpoint.
var ErrNotFound = errors.New("checkpoint: no checkpoint")

// ErrCorrupt wraps all envelope validation failures (bad magic or version,
// a length prefix the file cannot hold, checksum mismatch).
var ErrCorrupt = errors.New("checkpoint: corrupt")

// Checkpoint is one durable engine snapshot plus the serving watermarks.
type Checkpoint struct {
	Version int
	// Tick and Events are the server's progress watermarks at capture time:
	// recovery replays only log events after Events.
	Tick   uint64
	Events uint64
	// Engine names the snapshot dialect ("core" or "dist"); Kappa and Seed
	// guard against resuming a store against a differently-configured daemon.
	Engine string
	Kappa  int
	Seed   int64
	// Genesis, when set, fingerprints the run's initial graph (the producer
	// decides the digest; internal/server uses GenesisDigest). Recovery fails
	// on mismatch, so a daemon restarted under different topology flags can't
	// silently resume another run's checkpoint. Empty skips the check.
	Genesis string
	// State is the engine snapshot, opaque to the store.
	State []byte
	// Checksum is hex(sha256(State)), verified on load so a torn or
	// bit-rotted file is skipped rather than restored.
	Checksum string
}

// Name is the canonical filename for this checkpoint — zero-padded tick and
// event watermarks, so lexicographic order equals recovery order. FileStore
// saves under this name; log segment headers record it as their anchor.
func (c *Checkpoint) Name() string {
	return fmt.Sprintf("%s%016d-%016d%s", filePrefix, c.Tick, c.Events, fileSuffix)
}

// Seal recomputes the checksum over State. Call after filling State.
func (c *Checkpoint) Seal() {
	sum := sha256.Sum256(c.State)
	c.Checksum = hex.EncodeToString(sum[:])
}

// Verify validates the envelope: version, checksum, and non-empty state.
func (c *Checkpoint) Verify() error {
	if c.Version != Version {
		return fmt.Errorf("%w: version %d (want %d)", ErrCorrupt, c.Version, Version)
	}
	if len(c.State) == 0 {
		return fmt.Errorf("%w: empty state", ErrCorrupt)
	}
	sum := sha256.Sum256(c.State)
	if hex.EncodeToString(sum[:]) != c.Checksum {
		return fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return nil
}

// header encodes everything of c but the state: the file is header ‖ State.
// c must verify (Checksum is 64 hex digits).
func (c *Checkpoint) header() []byte {
	var w wire.Writer
	w.Raw([]byte(fileMagic))
	w.Uvarint(uint64(c.Version))
	w.Uvarint(c.Tick)
	w.Uvarint(c.Events)
	w.String(c.Engine)
	w.Int(int64(c.Kappa))
	w.Int(c.Seed)
	w.String(c.Genesis)
	sum, _ := hex.DecodeString(c.Checksum) // verified by the caller
	w.Raw(sum)
	w.Uvarint(uint64(len(c.State)))
	return w.Bytes()
}

// decodeFile parses and verifies one checkpoint file. The returned State
// aliases data. Every failure is ErrCorrupt.
func decodeFile(data []byte) (*Checkpoint, error) {
	r := wire.NewReader(data)
	if !bytes.Equal(r.Raw(len(fileMagic)), []byte(fileMagic)) {
		return nil, fmt.Errorf("%w: not a checkpoint file", ErrCorrupt)
	}
	c := &Checkpoint{Version: int(r.Uvarint())}
	if c.Version != Version {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrCorrupt, c.Version, Version)
	}
	c.Tick = r.Uvarint()
	c.Events = r.Uvarint()
	c.Engine = r.String()
	c.Kappa = int(r.Int())
	c.Seed = r.Int()
	c.Genesis = r.String()
	c.Checksum = hex.EncodeToString(r.Raw(sha256.Size))
	size := r.Uvarint()
	c.State = r.Rest()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if size != uint64(len(c.State)) {
		return nil, fmt.Errorf("%w: header promises %d state bytes, file holds %d", ErrCorrupt, size, len(c.State))
	}
	if err := c.Verify(); err != nil {
		return nil, err
	}
	return c, nil
}

// Store persists checkpoints. Save must be atomic: after a crash at any
// point, Load returns either the previous latest checkpoint or the new one.
// Load returns the newest valid checkpoint, or ErrNotFound.
type Store interface {
	Save(c *Checkpoint) error
	Load() (*Checkpoint, error)
}

// MemStore is an in-memory Store for tests. It keeps only the latest
// checkpoint, deep-copied on both Save and Load so callers can't alias.
type MemStore struct {
	latest *Checkpoint
	saves  int
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Save retains a copy of c as the latest checkpoint.
func (m *MemStore) Save(c *Checkpoint) error {
	if err := c.Verify(); err != nil {
		return err
	}
	cp := *c
	cp.State = bytes.Clone(c.State)
	m.latest = &cp
	m.saves++
	return nil
}

// Load returns a copy of the latest checkpoint.
func (m *MemStore) Load() (*Checkpoint, error) {
	if m.latest == nil {
		return nil, ErrNotFound
	}
	cp := *m.latest
	cp.State = bytes.Clone(m.latest.State)
	return &cp, nil
}

// Saves reports how many checkpoints have been saved (test hook).
func (m *MemStore) Saves() int { return m.saves }
