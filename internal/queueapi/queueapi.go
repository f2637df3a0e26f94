// Package queueapi defines the minimal interface every queue in this
// repository — wCQ, SCQ and all evaluation baselines — implements, so
// that the correctness checker and the benchmark harness can drive
// them uniformly.
//
// Payloads are uint64, matching the paper's benchmark (which moves
// word-sized pointers); benchmark identities are encoded as
// (thread<<32 | sequence).
package queueapi

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/metrics"
)

// ErrClosed reports an operation against a closed queue: a send after
// Close, or a receive once the queue is both closed and drained. It
// is the sentinel shared by every blocking facade in the repository
// (compare with errors.Is).
var ErrClosed = errors.New("queueapi: queue closed")

// Queue is a bounded or unbounded MPMC FIFO under test.
type Queue interface {
	// Handle returns a per-goroutine view of the queue. Queues with
	// per-thread state (wCQ, YMC, CRTurn, CCQueue) allocate a thread
	// record; others may return a shared stateless view. A Handle must
	// not be used by two goroutines concurrently.
	Handle() (Handle, error)
	// Cap returns the queue's capacity, or 0 when unbounded.
	Cap() uint64
	// Footprint returns the bytes the queue holds: what it allocated
	// at construction plus the rings it has built since (0 when
	// everything is dynamic). Together with runtime heap sampling
	// this reproduces the paper's Fig. 10a memory metric.
	Footprint() uint64
	// Name identifies the algorithm in reports (e.g. "wCQ", "SCQ").
	Name() string
}

// Handle is a per-goroutine queue view.
type Handle interface {
	// Enqueue appends v; false means the queue is full (bounded queues
	// only — unbounded queues always return true).
	Enqueue(v uint64) bool
	// Dequeue removes the oldest value; false means empty.
	Dequeue() (uint64, bool)
}

// Waitable is the optional blocking extension of Handle: Send and
// Recv park the goroutine (no spin-polling) instead of reporting
// full/empty, and the context variants honor cancellation and
// deadlines. Send returns ErrClosed once the queue is closed; Recv
// drains remaining values and then returns ErrClosed. The checker's
// blocking rounds and the harness's blocking workloads drive queues
// through this interface.
type Waitable interface {
	// Send blocks until v is enqueued or the queue closes.
	Send(v uint64) error
	// SendCtx is Send bounded by ctx; it returns ctx.Err() when the
	// context expires first (v was not enqueued).
	SendCtx(ctx context.Context, v uint64) error
	// Recv blocks until a value arrives or the queue is closed and
	// drained.
	Recv() (uint64, error)
	// RecvCtx is Recv bounded by ctx.
	RecvCtx(ctx context.Context) (uint64, error)
}

// Closer is the optional graceful-shutdown extension of Queue. Close
// is idempotent in effect; a second call returns ErrClosed.
type Closer interface {
	Close() error
}

// Statser is the optional observability extension of Queue: Stats
// snapshots the metrics sink the queue was built with. Queues built
// without a sink (and baselines with no instrumentation) report the
// zero snapshot or simply do not implement the interface.
type Statser interface {
	Stats() metrics.Snapshot
}

// WaitableHandle returns a fresh handle of q asserted to the blocking
// extension — the registration step every blocking driver (checker,
// harness) needs before spawning a goroutine.
func WaitableHandle(q Queue) (Waitable, error) {
	h, err := q.Handle()
	if err != nil {
		return nil, err
	}
	w, ok := h.(Waitable)
	if !ok {
		return nil, fmt.Errorf("queueapi: %s handle is not blocking (no Send/Recv)", q.Name())
	}
	return w, nil
}

// Batcher is the optional batch extension of Handle. Queues that can
// amortize per-operation overhead — a single fetch-and-add reserving
// the whole batch on the ring cores, shard selection paid once on the
// sharded Chan backends — implement it natively; everything else is
// served by the EnqueueBatch/DequeueBatch fallbacks below, so
// harnesses can drive batched workloads against any registered queue.
type Batcher interface {
	// EnqueueBatch appends a prefix of vs in order and returns its
	// length; a short count means the queue filled up mid-batch. The
	// values enqueued are always vs[:n], preserving the caller's FIFO
	// order.
	EnqueueBatch(vs []uint64) int
	// DequeueBatch fills a prefix of out and returns its length; 0
	// means the queue appeared empty.
	DequeueBatch(out []uint64) int
}

// BatchWaitable is the optional batch extension of Waitable: blocking
// sends and receives that move whole batches through the native
// reservation path. SendMany parks until every value is buffered (the
// returned count is the delivered prefix when interrupted by close or
// cancellation); RecvMany parks until at least one value is available
// and then returns what is there without waiting for more — at
// close-drain the final values come back as a partial batch before
// ErrClosed.
type BatchWaitable interface {
	// SendMany blocks until all of vs is buffered, in order; on error
	// it returns how many values made it in.
	SendMany(vs []uint64) (int, error)
	// RecvMany blocks until at least one value is available and fills
	// a prefix of out; it never returns 0 with a nil error.
	RecvMany(out []uint64) (int, error)
}

// EnqueueBatch appends a prefix of vs through h, using the native
// Batcher when h implements it and a one-at-a-time loop otherwise.
// It returns how many values were enqueued.
func EnqueueBatch(h Handle, vs []uint64) int {
	if b, ok := h.(Batcher); ok {
		return b.EnqueueBatch(vs)
	}
	for i, v := range vs {
		if !h.Enqueue(v) {
			return i
		}
	}
	return len(vs)
}

// DequeueBatch fills a prefix of out through h, using the native
// Batcher when h implements it. It returns how many values were
// written; it stops early the first time the queue reports empty.
func DequeueBatch(h Handle, out []uint64) int {
	if b, ok := h.(Batcher); ok {
		return b.DequeueBatch(out)
	}
	for i := range out {
		v, ok := h.Dequeue()
		if !ok {
			return i
		}
		out[i] = v
	}
	return len(out)
}
