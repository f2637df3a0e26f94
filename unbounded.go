package wfqueue

import (
	"fmt"

	"repro/internal/ring"
	"repro/internal/ringcore"
	"repro/internal/unbounded"
)

// DefaultRingCapacity is the per-ring capacity NewUnbounded uses when
// WithRingCapacity is not given: large enough that outer-list
// turnover is rare, small enough that a drained burst returns its
// memory promptly.
const DefaultRingCapacity = 1024

// WithRingCapacity sets the capacity of each ring an unbounded queue
// links (a power of two >= 2; default DefaultRingCapacity). It bounds
// the retained-memory granularity: after a burst drains, the queue
// keeps exactly one live ring. Other constructors ignore this option.
func WithRingCapacity(n uint64) Option {
	return func(o *options) { o.ringCap = n }
}

// UnboundedQueue is an MPMC FIFO with no capacity bound, built by
// linking bounded rings (the paper's Appendix A construction):
// Enqueue never reports full — when a ring fills, a fresh ring is
// appended. Memory therefore grows with the number of buffered
// values (in ring-sized steps, see Footprint) and shrinks back as
// bursts drain: a drained ring is left to the garbage collector.
//
// Progress: within a ring, operations are wait-free (the rings are
// wCQ rings), and the outer list that links the rings is lock-free;
// no lock is taken, turnover included. Turnover is rare (once per
// RingCap values), which is why throughput tracks the rings, as the
// paper observes.
type UnboundedQueue[T any] struct {
	q *unbounded.Queue[T]
}

// UnboundedHandle is a goroutine's capability to use an
// UnboundedQueue. Not safe for concurrent use by multiple goroutines.
// Within a ring, operations are wait-free; at ring boundaries they
// may retry on the lock-free outer list (see UnboundedQueue).
type UnboundedHandle[T any] struct {
	h *unbounded.Handle[T]
}

// NewUnbounded returns an empty unbounded queue of linked wCQ rings,
// operated by at most maxThreads concurrent handles (each ring's
// thread census). Configure the ring size with WithRingCapacity.
func NewUnbounded[T any](maxThreads int, opts ...Option) (*UnboundedQueue[T], error) {
	o := buildOpts(opts)
	if maxThreads < 1 {
		return nil, fmt.Errorf("wfqueue: maxThreads must be >= 1, got %d", maxThreads)
	}
	ringCap := o.ringCap
	if ringCap == 0 {
		ringCap = DefaultRingCapacity
	}
	if ringCap < 2 || !ring.IsPow2(ringCap) {
		return nil, fmt.Errorf("wfqueue: ring capacity must be a power of two >= 2, got %d", ringCap)
	}
	q, err := unbounded.New[T](ringcore.KindWCQ, ringCap, maxThreads, &o.core)
	if err != nil {
		return nil, err
	}
	return &UnboundedQueue[T]{q: q}, nil
}

// Handle registers the calling goroutine and returns its handle. It
// fails once maxThreads handles exist.
func (q *UnboundedQueue[T]) Handle() (*UnboundedHandle[T], error) {
	h, err := q.q.Handle()
	if err != nil {
		return nil, err
	}
	return &UnboundedHandle[T]{h: h}, nil
}

// RingCap returns the capacity of each linked ring.
func (q *UnboundedQueue[T]) RingCap() uint64 { return q.q.RingCap() }

// Rings returns the number of live rings currently linked (at least
// one). Racy by nature; for introspection and capacity planning.
func (q *UnboundedQueue[T]) Rings() int { return q.q.Rings() }

// Footprint returns the bytes retained right now: the live rings.
// Unlike the bounded queues' constant footprint, this grows in
// ring-sized steps while values are buffered and shrinks back to one
// ring after a drain. A ring a handle built for a turnover that
// another handle linked first is dropped at once and never counted.
// Each ring is counted at its own size, which grows once, when the
// ring first recycles an index and builds its free-index ring; a ring
// filled once, sealed and drained never does. Footprint does not count
// the rings a handle last used: each handle's two views (one per end
// of the queue) may keep up to two drained rings reachable until it
// next operates, so the live heap can exceed Footprint by at most two
// rings per handle.
func (q *UnboundedQueue[T]) Footprint() uint64 { return q.q.Footprint() }

// Stats snapshots the metrics sink shared by the queue and its linked
// rings. The zero snapshot is returned when the queue was built
// without WithMetrics.
func (q *UnboundedQueue[T]) Stats() MetricsSnapshot { return q.q.Stats() }

// Enqueue appends v. It always succeeds — the queue grows instead of
// reporting full. An UnboundedQueue built by NewUnbounded cannot fail
// here; the implementation panics if an internal invariant (ring
// construction or census accounting) is ever broken.
func (h *UnboundedHandle[T]) Enqueue(v T) { h.h.Enqueue(v) }

// Dequeue removes and returns the oldest value; ok is false when the
// queue is empty.
func (h *UnboundedHandle[T]) Dequeue() (v T, ok bool) { return h.h.Dequeue() }

// EnqueueBatch appends vs in order. It always enqueues the whole
// batch — the current ring absorbs what fits in one reservation and
// the remainder rolls over to fresh rings — and returns len(vs) for
// symmetry with the bounded queues' batch contract.
func (h *UnboundedHandle[T]) EnqueueBatch(vs []T) int { return h.h.EnqueueBatch(vs) }

// DequeueBatch fills a prefix of out with the oldest values, draining
// across ring boundaries in FIFO order, and returns its length; 0
// means the queue appeared empty.
func (h *UnboundedHandle[T]) DequeueBatch(out []T) int { return h.h.DequeueBatch(out) }
