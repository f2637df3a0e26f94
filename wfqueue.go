// Package wfqueue is a Go implementation of wCQ, the fast wait-free
// MPMC FIFO queue with bounded memory usage of Nikolaev & Ravindran
// (SPAA '22), together with the lock-free SCQ it builds on.
//
// # Quick start
//
//	q, err := wfqueue.New[string](1024, 8) // capacity 1024, up to 8 goroutines
//	h, err := q.Handle()                   // one handle per goroutine
//	h.Enqueue("hello")
//	v, ok := h.Dequeue()
//
// Every operation completes in a bounded number of steps regardless of
// what other goroutines do (wait-freedom), and the queue never
// allocates after construction (bounded memory) — the two properties
// the paper shows cannot be had together in prior fast queues.
//
// # Handles
//
// wCQ keeps a fixed census of per-thread helper records, so each
// concurrent goroutine needs its own Handle. A Handle must not be used
// from two goroutines at once; handles cannot be returned to the
// census. This mirrors the paper's NUM_THRDS assumption.
//
// # Variants
//
// NewLockFree builds the SCQ variant: same ring, same performance
// envelope, no helping (lock-free progress only, no handle census).
// NewRing exposes the underlying wait-free index ring for
// allocator-style use (DPDK/SPDK-like index pools, Figure 2 of the
// paper). NewUnbounded links wCQ rings into a queue with no capacity
// limit (the paper's Appendix A): Enqueue never reports full, memory
// grows and shrinks in ring-sized steps, and a drained ring is left to
// the garbage collector. NewChan layers blocking Send/Recv/Close
// semantics over any of the cores, or over four wCQ shards
// (BackendSharded, BackendShardedUnbounded), which keep FIFO order per
// handle only.
//
// See ARCHITECTURE.md for the layer map and the progress/memory
// table of every variant.
package wfqueue

import (
	"fmt"

	"repro/internal/atomicx"
	"repro/internal/metrics"
	"repro/internal/ringcore"
	"repro/internal/wcq"
)

// Option customizes queue construction.
type Option func(*options)

type options struct {
	// core is the ring tuning (F&A mode, patience, help delay, metrics
	// sink) handed unchanged to every layer the constructor builds.
	core    ringcore.Options
	backend Backend
	ringCap uint64
}

// WithEmulatedFAA makes every fetch-and-add a CAS loop, modelling
// LL/SC architectures without native F&A (the paper's PowerPC port,
// §4). Mostly useful for benchmarking.
func WithEmulatedFAA() Option {
	return func(o *options) { o.core.Mode = atomicx.EmulatedFAA }
}

// WithPatience sets MAX_PATIENCE: how many fast-path attempts an
// enqueue/dequeue makes before switching to the wait-free slow path.
// The paper uses 16 and 64. Lower values bound worst-case latency more
// tightly at some throughput cost.
func WithPatience(enqueue, dequeue int) Option {
	return func(o *options) { o.core.EnqPatience, o.core.DeqPatience = enqueue, dequeue }
}

// WithHelpDelay sets how many operations pass between scans for
// stalled peers (HELP_DELAY).
func WithHelpDelay(n int) Option {
	return func(o *options) { o.core.HelpDelay = n }
}

// MetricsSink accumulates event counters (slow-path entries, threshold
// resets, batch degradations, steals, ring turnover, park/wake
// traffic, close drains) and a parked-duration histogram for one queue
// or one composition. Recording is allocation-free and sharded across
// cache-line-padded per-CPU stripes; a nil *MetricsSink is the
// disabled mode, costing the hot paths a single predictable branch.
type MetricsSink = metrics.Sink

// MetricsSnapshot is a point-in-time copy of a MetricsSink: one total
// per event plus the parked-duration histogram (with Quantile, Mean
// and Max). Snapshots are plain values — mergeable and comparable.
type MetricsSnapshot = metrics.Snapshot

// NewMetricsSink returns an enabled sink to pass to WithMetrics. Share
// one sink across queues to aggregate them, or give each its own.
func NewMetricsSink() *MetricsSink { return metrics.New() }

// WithMetrics makes the queue record events and parked durations into
// m. The same sink is threaded through every layer of a composition
// (shards, linked rings, the Chan's park points), so the composition's
// Stats aggregate in one place. A nil m (or omitting the option)
// disables recording; the hot paths then pay one predictable branch
// per potential event, measured at well under a nanosecond.
func WithMetrics(m *MetricsSink) Option {
	return func(o *options) { o.core.Metrics = m }
}

// validate enforces the documented constructor contract at the public
// boundary, in this package's own vocabulary (the internal layers
// carry their own checks, but callers of wfqueue should see wfqueue
// errors phrased against the public docs).
func validate(capacity uint64, maxThreads int) error {
	if maxThreads < 1 {
		return fmt.Errorf("wfqueue: maxThreads must be >= 1, got %d", maxThreads)
	}
	if capacity < 2 || capacity&(capacity-1) != 0 {
		return fmt.Errorf("wfqueue: capacity must be a power of two >= 2, got %d", capacity)
	}
	return nil
}

func buildOpts(opts []Option) options {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// Queue is a bounded wait-free MPMC FIFO of values of type T.
type Queue[T any] struct {
	q *ringcore.Queue[T]
}

// Handle is a goroutine's capability to use a Queue. Not safe for
// concurrent use by multiple goroutines; operations are wait-free
// (bounded steps regardless of other goroutines).
type Handle[T any] struct {
	h *ringcore.QueueHandle[T]
}

// New returns an empty wait-free queue holding up to capacity values
// (a power of two >= 2), operated by at most maxThreads concurrent
// handles.
func New[T any](capacity uint64, maxThreads int, opts ...Option) (*Queue[T], error) {
	if err := validate(capacity, maxThreads); err != nil {
		return nil, err
	}
	o := buildOpts(opts)
	q, err := ringcore.New[T](ringcore.KindWCQ, capacity, maxThreads, &o.core)
	if err != nil {
		return nil, err
	}
	return &Queue[T]{q: q}, nil
}

// Handle registers the calling goroutine and returns its handle. It
// fails once maxThreads handles exist.
func (q *Queue[T]) Handle() (*Handle[T], error) {
	h, err := q.q.Register()
	if err != nil {
		return nil, err
	}
	return &Handle[T]{h: h}, nil
}

// Cap returns the queue capacity.
func (q *Queue[T]) Cap() uint64 { return q.q.Cap() }

// Footprint returns the bytes the queue has allocated. The queue
// allocates at most once after construction: its free-index ring, at
// the first dequeue whose slot goes back to the shared pool rather
// than to the handle's own cache. Footprint then rises once, to the
// bound it always had, and never changes again.
func (q *Queue[T]) Footprint() uint64 { return q.q.Footprint() }

// Stats snapshots the queue's metrics sink. The zero snapshot is
// returned when the queue was built without WithMetrics.
func (q *Queue[T]) Stats() MetricsSnapshot { return q.q.Stats() }

// Enqueue appends v; it returns false when the queue is full. The
// operation completes in a bounded number of steps.
//
// Full means every slot was, at some instant during the call, holding
// a value or held by an operation that overlapped the call. A handle
// holds slots between its calls: the rest of the never-used slots its
// Enqueue claimed 16 at a time, and the slot its Dequeue freed when it
// alternates Enqueue and Dequeue. Enqueue takes those from other
// handles before it reports full, but its search of them is not
// atomic, so while other handles run, false does not mean the queue
// held Cap() values at one instant. With no operation overlapping the
// call, it does.
//
//wfq:noalloc
func (h *Handle[T]) Enqueue(v T) bool { return h.h.Enqueue(v) }

// Dequeue removes and returns the oldest value; ok is false when the
// queue is empty. The operation completes in a bounded number of
// steps.
//
//wfq:noalloc
func (h *Handle[T]) Dequeue() (v T, ok bool) { return h.h.Dequeue() }

// EnqueueBatch appends a prefix of vs in order and returns its length
// (a short count means the queue filled up mid-batch, full in the
// sense Enqueue states). The fast path reserves the whole batch with
// one fetch-and-add per underlying ring instead of one per element;
// the operation stays wait-free.
//
//wfq:noalloc
func (h *Handle[T]) EnqueueBatch(vs []T) int { return h.h.EnqueueBatch(vs) }

// DequeueBatch fills a prefix of out with the oldest values and
// returns its length; 0 means the queue appeared empty. One
// reservation fetch-and-add per ring on the fast path; wait-free.
//
//wfq:noalloc
func (h *Handle[T]) DequeueBatch(out []T) int { return h.h.DequeueBatch(out) }

// Ring is a bounded wait-free MPMC queue of indices in [0, Cap()) —
// the raw wCQ ring, useful as a free-list/allocation pool (the aq/fq
// pattern of the paper's Figure 2).
type Ring struct {
	r *wcq.Ring
}

// RingHandle is a goroutine's capability to use a Ring. Not safe for
// concurrent use by multiple goroutines; operations are wait-free.
type RingHandle struct {
	h *wcq.Handle
}

// NewRing returns an empty wait-free index ring. If full is true it is
// pre-filled with 0..capacity-1 (a free-index pool).
func NewRing(capacity uint64, maxThreads int, full bool, opts ...Option) (*Ring, error) {
	if err := validate(capacity, maxThreads); err != nil {
		return nil, err
	}
	o := buildOpts(opts)
	var r *wcq.Ring
	var err error
	if full {
		r, err = wcq.NewFullRing(capacity, maxThreads, &o.core)
	} else {
		r, err = wcq.NewRing(capacity, maxThreads, &o.core)
	}
	if err != nil {
		return nil, err
	}
	return &Ring{r: r}, nil
}

// Handle registers the calling goroutine.
func (r *Ring) Handle() (*RingHandle, error) {
	h, err := r.r.Register()
	if err != nil {
		return nil, err
	}
	return &RingHandle{h: h}, nil
}

// Cap returns the ring capacity.
func (r *Ring) Cap() uint64 { return r.r.Cap() }

// Stats snapshots the ring's metrics sink. The zero snapshot is
// returned when the ring was built without WithMetrics.
func (r *Ring) Stats() MetricsSnapshot { return r.r.Metrics().Snapshot() }

// Enqueue inserts an index in [0, Cap()). The ring never reports full:
// the caller must keep at most Cap() indices live (as a free-list
// naturally does).
//
//wfq:noalloc
func (h *RingHandle) Enqueue(index uint64) { h.h.Enqueue(index) }

// Dequeue removes the oldest index; ok is false when empty.
//
//wfq:noalloc
func (h *RingHandle) Dequeue() (index uint64, ok bool) { return h.h.Dequeue() }

// LockFreeQueue is the SCQ variant: identical structure, lock-free
// (not wait-free) progress, no handle census — any goroutine may call
// it directly.
type LockFreeQueue[T any] struct {
	q *ringcore.Queue[T]
	// h serves the handle-free Enqueue and Dequeue for every goroutine
	// at once. Its id is -1, so it has no kept-index slot and never
	// keeps, and HandleAt builds the free-index ring and binds h to it
	// before any goroutine runs, so its scalar path writes no handle
	// state and only calls the two rings, which are the shared rings
	// themselves. Only Handle's handles run batches.
	h *ringcore.QueueHandle[T]
}

// NewLockFree returns an empty lock-free (SCQ) queue.
func NewLockFree[T any](capacity uint64, opts ...Option) (*LockFreeQueue[T], error) {
	if err := validate(capacity, 1); err != nil {
		return nil, err
	}
	o := buildOpts(opts)
	q, err := ringcore.New[T](ringcore.KindSCQ, capacity, 1, &o.core)
	if err != nil {
		return nil, err
	}
	h, err := q.HandleAt(-1)
	if err != nil {
		return nil, err
	}
	return &LockFreeQueue[T]{q: q, h: h}, nil
}

// Enqueue appends v; false when full, in the sense Handle.Enqueue
// states for Queue. Safe for any goroutine.
//
//wfq:noalloc
func (q *LockFreeQueue[T]) Enqueue(v T) bool { return q.h.Enqueue(v) }

// Dequeue removes the oldest value; ok is false when empty.
//
//wfq:noalloc
func (q *LockFreeQueue[T]) Dequeue() (T, bool) { return q.h.Dequeue() }

// Handle returns a per-goroutine view carrying the zero-allocation
// batch scratch. SCQ has no thread census, so Handle never fails and
// any number may be created; like every other handle in this package
// it must not be shared between goroutines. Scalar operations work
// both on the queue directly and on a handle — only the batch
// operations need one (their scratch buffer is what makes them
// allocation-free, and a shared buffer could not be).
func (q *LockFreeQueue[T]) Handle() (*LockFreeHandle[T], error) {
	h, err := q.q.Register()
	if err != nil {
		return nil, err
	}
	return &LockFreeHandle[T]{h: h}, nil
}

// Cap returns the queue capacity.
func (q *LockFreeQueue[T]) Cap() uint64 { return q.q.Cap() }

// Footprint returns the bytes the queue has allocated. A queue of this
// package allocates at most once after construction, its free-index
// ring at the first recycle (see Queue.Footprint); the shared handle
// behind Enqueue and Dequeue needs that ring from the start, so
// NewLockFree builds it and Footprint never changes.
func (q *LockFreeQueue[T]) Footprint() uint64 { return q.q.Footprint() }

// Stats snapshots the queue's metrics sink. The zero snapshot is
// returned when the queue was built without WithMetrics.
func (q *LockFreeQueue[T]) Stats() MetricsSnapshot { return q.q.Stats() }

// LockFreeHandle is a goroutine's capability to use a LockFreeQueue,
// carrying the per-handle scratch the native batch reservation uses.
// Not safe for concurrent use by multiple goroutines.
type LockFreeHandle[T any] struct {
	h *ringcore.QueueHandle[T]
}

// Enqueue appends v; false when full, in the sense Handle.Enqueue
// states for Queue.
//
//wfq:noalloc
func (h *LockFreeHandle[T]) Enqueue(v T) bool { return h.h.Enqueue(v) }

// Dequeue removes the oldest value; ok is false when empty.
//
//wfq:noalloc
func (h *LockFreeHandle[T]) Dequeue() (T, bool) { return h.h.Dequeue() }

// EnqueueBatch appends a prefix of vs in order and returns its length
// (a short count means the queue filled up mid-batch, full in the
// sense Handle.Enqueue states for Queue). The whole batch is reserved with one fetch-and-add per ring instead of one
// per element; the steady-state hot path allocates nothing.
//
//wfq:noalloc
func (h *LockFreeHandle[T]) EnqueueBatch(vs []T) int { return h.h.EnqueueBatch(vs) }

// DequeueBatch fills a prefix of out with the oldest values and
// returns its length; 0 means the queue appeared empty.
//
//wfq:noalloc
func (h *LockFreeHandle[T]) DequeueBatch(out []T) int { return h.h.DequeueBatch(out) }
