package wcq

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/pad"
)

// Queue is a bounded wait-free MPMC queue of arbitrary values, built
// from two wait-free Rings and a data array via the paper's Figure 2
// indirection: fq circulates free indices, aq circulates allocated
// ones. All memory is allocated at construction.
//
// Every operation reads the three fields and none writes them; the
// pads keep them off any cache line a neighbouring heap object writes.
type Queue[T any] struct {
	_    pad.Line
	aq   *Ring
	fq   *Ring
	data []T
	_    pad.Line
}

// QueueHandle is a registered thread's capability to operate on a
// Queue. Like Handle it must not be shared between goroutines.
type QueueHandle[T any] struct {
	q   *Queue[T]
	aqh *Handle
	fqh *Handle
	// idxBuf carries index runs between fq, the data array and aq in
	// the batch operations. It grows to the largest batch this handle
	// has seen and is then reused forever, so the steady-state batch
	// hot path allocates nothing.
	idxBuf []uint64
}

// scratch returns the handle's index buffer, grown to hold n entries
// but never past the ring capacity — at most Cap() indices can move
// per call, so a batch far larger than the ring must not pin a
// buffer sized to the batch (short counts are within the batch
// contract; the caller resumes with the remainder).
//
//wfq:allocok grows to ring capacity once per handle, then reused
func (h *QueueHandle[T]) scratch(n int) []uint64 {
	if c := int(h.q.Cap()); n > c {
		n = c
	}
	if cap(h.idxBuf) < n {
		h.idxBuf = make([]uint64, n)
	}
	return h.idxBuf[:n]
}

// NewQueue returns an empty Queue holding up to capacity values,
// usable by at most maxThreads registered handles. capacity must be a
// power of two >= 2.
func NewQueue[T any](capacity uint64, maxThreads int, opts *Options) (*Queue[T], error) {
	aq, err := NewRing(capacity, maxThreads, opts)
	if err != nil {
		return nil, err
	}
	fq, err := NewFullRing(capacity, maxThreads, opts)
	if err != nil {
		return nil, err
	}
	return &Queue[T]{aq: aq, fq: fq, data: make([]T, capacity)}, nil
}

// Register allocates per-thread records in both underlying rings.
func (q *Queue[T]) Register() (*QueueHandle[T], error) {
	aqh, err := q.aq.Register()
	if err != nil {
		return nil, fmt.Errorf("wcq: registering with aq: %w", err)
	}
	fqh, err := q.fq.Register()
	if err != nil {
		return nil, fmt.Errorf("wcq: registering with fq: %w", err)
	}
	return &QueueHandle[T]{q: q, aqh: aqh, fqh: fqh}, nil
}

// Enqueue appends v; it returns false when the queue is full. The
// operation is wait-free.
//
//wfq:noalloc
func (h *QueueHandle[T]) Enqueue(v T) bool {
	idx, ok := h.fqh.Dequeue()
	if !ok {
		return false
	}
	h.q.data[idx] = v
	h.aqh.Enqueue(idx)
	return true
}

// Dequeue removes and returns the oldest value; ok is false when the
// queue is empty. The operation is wait-free.
//
//wfq:noalloc
func (h *QueueHandle[T]) Dequeue() (v T, ok bool) {
	idx, ok := h.aqh.Dequeue()
	if !ok {
		var zero T
		return zero, false
	}
	v = h.q.data[idx]
	var zero T
	h.q.data[idx] = zero // release references before recycling the slot
	h.fqh.Enqueue(idx)
	return v, true
}

// EnqueueBatch appends a prefix of vs in order and returns its length;
// a short count means the queue filled up mid-batch. Index traffic
// with fq/aq moves through the native wait-free ring batches, so the
// fast path pays one F&A per ring per batch instead of one per
// element. The operation is wait-free (two bounded ring batches).
//
//wfq:noalloc
func (h *QueueHandle[T]) EnqueueBatch(vs []T) int {
	if len(vs) == 0 {
		return 0
	}
	buf := h.scratch(len(vs))
	n := h.fqh.DequeueBatch(buf)
	for j := 0; j < n; j++ {
		h.q.data[buf[j]] = vs[j]
	}
	h.aqh.EnqueueBatch(buf[:n])
	return n
}

// DequeueBatch fills a prefix of out with the oldest values and
// returns its length; 0 means the queue appeared empty. Wait-free
// like EnqueueBatch.
//
//wfq:noalloc
func (h *QueueHandle[T]) DequeueBatch(out []T) int {
	if len(out) == 0 {
		return 0
	}
	buf := h.scratch(len(out))
	n := h.aqh.DequeueBatch(buf)
	var zero T
	for j := 0; j < n; j++ {
		idx := buf[j]
		out[j] = h.q.data[idx]
		h.q.data[idx] = zero // release references before recycling the slot
	}
	h.fqh.EnqueueBatch(buf[:n])
	return n
}

// Empty reports that the queue held no value at some instant during
// the call: aq's head counter had caught up with its tail counter, so
// every enqueued value had been claimed by a dequeue. The probe is
// one-sided (a concurrent enqueue may land right after), which is the
// guarantee the blocking facade's direct handoff needs — handing a
// value past the ring is FIFO-safe iff nothing unclaimed precedes it.
//
//wfq:noalloc
func (q *Queue[T]) Empty() bool { return q.aq.Drained() }

// Cap returns the queue capacity.
//
//wfq:noalloc
func (q *Queue[T]) Cap() uint64 { return q.aq.Cap() }

// Metrics returns the sink both underlying rings record into (nil when
// metrics are disabled). aq and fq are built from the same Options, so
// one accessor covers the queue.
//
//wfq:noalloc
func (q *Queue[T]) Metrics() *metrics.Sink { return q.aq.Metrics() }

// Footprint returns the statically allocated byte size of the queue
// (both rings, thread records and the payload array slots).
//
//wfq:noalloc
func (q *Queue[T]) Footprint() uint64 {
	return q.aq.Footprint() + q.fq.Footprint() + uint64(cap(q.data))*8
}
