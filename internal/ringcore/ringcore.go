// Package ringcore defines the one contract both of the paper's
// index-ring cores — the wait-free wCQ and the lock-free SCQ — are
// consumed through, so the sharded queue, the queue registry and the
// blocking facade are written once against Core/Handle instead of
// once per core.
//
// Both kinds share one payload layer, Queue (payload.go): the paper's
// Figure 2 data array between a free-index ring and an
// allocated-index ring, written once over either kind of index ring.
// Where the paper starts the free-index ring full of 0..n-1, a Queue
// starts it empty and hands out the never-used indices from a counter,
// so the free-index ring only ever holds recycled indices. New leaves
// it out until a handle first returns an index to it, so a queue that
// never recycles through it, such as a ring of the unbounded
// construction filled once and drained, or a queue of handles that
// alternate Enqueue and Dequeue, never allocates one. The counter's
// i-th index names data slot i. The index rings place their
// entries with ring.Slot: the paper's Cache_Remap on rings that stay
// in cache, and a layout that keeps each aligned run of 16 on two
// lines on larger ones. A take zeroes its slot only when the value
// type holds pointers. Each id below maxThreads also has a kept-index
// slot in front of the free-index ring: a handle that alternates
// Enqueue and Dequeue passes its index from one to the next through
// it, and never touches the free-index ring. Next to the slot is the
// id's run, the never-used indices its handle claimed from the
// counter 16 at a time and has not used yet; other handles steal from
// runs and slots before they report the queue full. The Queue holds
// each id's slot and run on a 64 B line of its own, whatever the ring
// kind; the index rings know nothing of them. The unbounded linked
// rings and the public wfqueue types hold the concrete *Queue that New
// builds, rather than the contract: they call its handles directly,
// and the unbounded construction also uses QueueHandle's drain-only
// dequeue, which the contract does not carry.
//
// The split between the two interfaces follows who needs what:
//
//   - Handle is the per-goroutine operating surface: scalar and
//     native-batch enqueue/dequeue.
//   - Core is what any composition needs to hold a sub-queue: handle
//     acquisition, capacity, live footprint, the emptiness probe, and
//     the metrics snapshot.
//
// The compositions implement the same two interfaces: a sharded or an
// unbounded queue is itself a Core, so it can be composed again or
// served by the registry and the blocking facade with no adapter.
//
// A ring has no lifecycle of its own: the unbounded construction seals
// its list nodes, not the rings. A sealed node's ring is emptied with
// Drain, which leaves its indices out of the free-index ring, and is
// never linked again.
package ringcore

import (
	"repro/internal/metrics"
	"repro/internal/wcq"
)

// Kind selects one of the paper's index-ring cores.
type Kind int

const (
	// KindWCQ is the wait-free wCQ core (the paper's contribution):
	// bounded steps per operation via helping, at the cost of a fixed
	// per-ring thread census consumed by Acquire.
	KindWCQ Kind = iota
	// KindSCQ is the lock-free SCQ substrate: no thread census, so any
	// number of handles may be acquired, with lock-free (not
	// wait-free) progress.
	KindSCQ
)

// String names the kind as the queue registry does.
func (k Kind) String() string {
	switch k {
	case KindWCQ:
		return "wCQ"
	case KindSCQ:
		return "SCQ"
	}
	return "?"
}

// Census reports whether handles of this kind draw on a bounded
// per-ring thread census (wCQ's NUM_THRDS records). Kinds without a
// census accept any number of Acquire calls, which is what lets the
// unbounded construction leave its handle count unbounded for SCQ
// rings.
func (k Kind) Census() bool { return k == KindWCQ }

// Kinds lists every registered ring kind, in registry-name order.
func Kinds() []Kind { return []Kind{KindWCQ, KindSCQ} }

// Options tunes a core: the F&A mode, wCQ's MAX_PATIENCE bounds and
// HELP_DELAY, and the metrics sink. It is wCQ's own tuning struct, so
// every layer — ring, payload queue, composition, registry, public
// option — carries the same one; KindSCQ only consults Mode and
// Metrics. Compositions thread the SAME sink into every sub-core they
// build from these options, so a whole stack aggregates into one
// Sink. A nil *Options selects native F&A, the paper's defaults and
// no metrics.
type Options = wcq.Options

// Handle is a goroutine's capability to operate on a core. Like the
// underlying queues' handles it must not be used by two goroutines
// concurrently. Batch operations move through the cores' native
// multi-slot reservation (one F&A per batch) with per-handle
// zero-allocation scratch on both kinds.
type Handle[T any] interface {
	// Enqueue appends v; false means the core is full.
	Enqueue(v T) bool
	// Dequeue removes the oldest value; ok is false when empty.
	Dequeue() (T, bool)
	// EnqueueBatch appends a prefix of vs in order and returns its
	// length; a short count means the core filled up mid-batch.
	EnqueueBatch(vs []T) int
	// DequeueBatch fills a prefix of out with the oldest values and
	// returns its length; 0 means the core appeared empty.
	DequeueBatch(out []T) int
}

// Core is a queue core behind the one contract every composition
// consumes: handle acquisition plus the introspection the registry
// and the harness need. Both bounded ring kinds implement it, and so
// do the compositions — the sharded and unbounded queues are Cores
// themselves.
type Core[T any] interface {
	// Acquire returns a per-goroutine Handle. For kinds with a thread
	// census (KindWCQ) it fails once the census is exhausted;
	// census-free kinds never fail.
	Acquire() (Handle[T], error)
	// Cap returns the capacity, or 0 when the core is unbounded.
	Cap() uint64
	// Footprint returns the bytes the core retains right now. Bounded
	// cores report their fixed construction-time allocation; unbounded
	// composites report a live figure that grows and shrinks.
	Footprint() uint64
	// Empty reports that the core held no unclaimed value at some
	// instant during the call. The probe is one-sided: true proves a
	// linearization point at which every enqueued value had been
	// claimed by a dequeuer (a concurrent enqueue may land right
	// after); false proves nothing. The blocking facade's direct
	// handoff relies on exactly this — bypassing the ring is FIFO-safe
	// iff no unclaimed value precedes the handed-off one.
	Empty() bool
	// Stats snapshots the metrics sink the core records into. One Sink
	// is threaded through every layer of a composition, so the
	// outermost Stats already aggregates the whole stack; a core built
	// without metrics returns the zero Snapshot.
	Stats() metrics.Snapshot
}
