package core

import "math/rand"

// CountedSource is a math/rand Source64 that counts how many values it has
// produced. That count is what makes full-state snapshots possible: the
// healing algorithm's private randomness (H-graph wiring, leader ranks) is a
// deterministic stream from the seed, so a snapshot only needs to record the
// seed and the number of values drawn so far; restoring re-seeds the stream
// and fast-forwards past the consumed prefix, after which every future draw
// is identical to the uncrashed run's.
//
// Both Int63 and Uint64 advance the underlying generator by exactly one
// step, so a single count captures the stream position regardless of which
// method each call site used.
type CountedSource struct {
	src   rand.Source64
	draws uint64
}

var _ rand.Source64 = (*CountedSource)(nil)

// NewCountedSource returns a counted source over math/rand's default
// generator seeded with seed. rand.New over it yields the exact value
// sequence of rand.New(rand.NewSource(seed)).
func NewCountedSource(seed int64) *CountedSource {
	return &CountedSource{src: rand.NewSource(seed).(rand.Source64)}
}

// Int63 implements rand.Source.
func (c *CountedSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

// Uint64 implements rand.Source64.
func (c *CountedSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

// Seed implements rand.Source. Re-seeding resets the draw count: the stream
// position is again 0 values past the (new) seed.
func (c *CountedSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.draws = 0
}

// Draws returns the number of values produced since seeding.
func (c *CountedSource) Draws() uint64 { return c.draws }

// switchableSource is the one level of indirection between a State's
// *rand.Rand and the stream actually feeding it. Cloud maintainers capture
// the *rand.Rand pointer for their lifetime, so redirecting randomness for
// the duration of one repair (see deleteNode's per-repair sub-stream) must
// happen behind the Rand, not by handing out a different Rand.
//
// Not safe for concurrent use; each State owns exactly one.
type switchableSource struct {
	cur rand.Source64
}

var _ rand.Source64 = (*switchableSource)(nil)

func (w *switchableSource) Int63() int64    { return w.cur.Int63() }
func (w *switchableSource) Uint64() uint64  { return w.cur.Uint64() }
func (w *switchableSource) Seed(seed int64) { w.cur.Seed(seed) }

// Skip fast-forwards the stream by n values (used by snapshot restore to
// reach the recorded position).
func (c *CountedSource) Skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		c.src.Uint64()
	}
	c.draws += n
}
