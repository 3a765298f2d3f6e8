package server

import "sync"

// intake is the bounded FIFO between submitters and the tick loop: one
// mutex-guarded slice, so arrival order is lock order. A submitter that saw
// its enqueue return is ahead of every enqueue that starts afterwards, and
// one enqueue call's submissions stay contiguous and in order — which is
// what the HTTP array handler needs: an insert followed by events attaching
// to it must admit in that order. (Two enqueues racing each other have no
// defined order, same as two racing channel sends.)
type intake struct {
	mu       sync.Mutex
	subs     []*submission
	capacity int
	// notify carries at most one wake-up token for the tick loop; enqueue's
	// send is non-blocking because a queued token already guarantees the
	// loop will drain everything present.
	notify chan struct{}
}

func newIntake(capacity int) *intake {
	return &intake{capacity: capacity, notify: make(chan struct{}, 1)}
}

// enqueue admits as many of subs as capacity allows — always a prefix — and
// returns how many were accepted. The caller fails the rest with ErrBacklog.
func (q *intake) enqueue(subs []*submission) int {
	q.mu.Lock()
	take := min(len(subs), q.capacity-len(q.subs))
	q.subs = append(q.subs, subs[:take]...)
	q.mu.Unlock()
	if take > 0 {
		select {
		case q.notify <- struct{}{}:
		default:
		}
	}
	return take
}

// drainInto appends every buffered submission to buf, in arrival order, and
// returns it. The buffer's backing array is kept for later enqueues.
func (q *intake) drainInto(buf []*submission) []*submission {
	q.mu.Lock()
	buf = append(buf, q.subs...)
	clear(q.subs)
	q.subs = q.subs[:0]
	q.mu.Unlock()
	return buf
}

// len reports buffered submissions.
func (q *intake) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.subs)
}
