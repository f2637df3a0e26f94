// Package sharded composes Shards independent ring cores into one
// MPMC queue that spreads the single fetch-and-add hot word of the
// underlying queues across Shards head/tail pairs. It is the buffer of
// the blocking Chan's BackendSharded and BackendShardedUnbounded, and
// nothing else: as a nonblocking queue it lost to one wCQ ring at
// every cross-thread cell measured, while under the Chan it won some
// (see the README's "Sharded backends").
//
// Shards are wait-free wCQ rings, consumed exclusively through the
// ringcore contract, so one code path serves both backends: bounded
// ring shards, and unbounded linked-ring shards (Options.Unbounded)
// whose per-shard growth removes the global capacity bound entirely.
// An unbounded shard is the unbounded queue itself, which is a
// ringcore.Core; and the sharded queue is a ringcore.Core in turn, so
// the Chan holds it with no adapter.
//
// # Semantics
//
// Each handle has a fixed home shard assigned round-robin at
// registration; all of its enqueues go there, so any one handle's
// values traverse exactly one linearizable FIFO and per-(shard,handle)
// order is preserved — the per-producer FIFO property the checker
// verifies survives sharding. Dequeue probes the home shard first
// (one probe in balanced workloads, and every handle preferentially
// drains the shard it fills), then steals round-robin from a
// persistent per-handle cursor, visiting every shard before reporting
// empty — so no shard starves even with a single consumer.
//
// The relaxations relative to a single wCQ are the usual sharding
// trade-offs, and are deliberate:
//
//   - Global inter-producer ordering is not linearizable: values from
//     different handles live in different shards and may be observed
//     in either order. Per-handle order is strict.
//   - Enqueue reports full when the handle's HOME shard is full, even
//     if other shards have room (capacity is per-shard, Cap() is the
//     sum). Producers that spin on full make progress as long as any
//     consumer is draining, because consumers scan every shard. With
//     unbounded shards "full" cannot happen at all.
//   - Dequeue reports empty only after one full scan of all shards; a
//     value enqueued to an already-scanned shard during the scan may
//     be missed once, like any emptiness check that is not a snapshot.
//
// # Batching
//
// EnqueueBatch/DequeueBatch amortize the per-operation handle and
// shard-selection overhead AND the underlying rings' reservation cost:
// an enqueue batch pays the home-shard lookup once and hands the whole
// batch to the shard's native ring batch (one Tail F&A per batch
// instead of one per element); a dequeue batch drains chunk-sized runs
// from one shard before rotating, each chunk one Head F&A. Scalar and
// batch dequeues share one steal scan, so the stealStride fairness
// bound holds for both. They implement the queueapi.Batcher contract
// natively.
package sharded

import (
	"fmt"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/ringcore"
	"repro/internal/unbounded"
)

// Compile-time checks: the composition is consumed through the same
// contract as a single ring.
var (
	_ ringcore.Core[int]   = (*Queue[int])(nil)
	_ ringcore.Handle[int] = (*Handle[int])(nil)
)

// Shards is the number of independent sub-queues. For bounded shards
// the total capacity is split evenly, so capacity / Shards must itself
// be a power of two >= 2.
const Shards = 4

// Options tunes the sharded composition.
type Options struct {
	// Unbounded makes every shard an unbounded linked-ring queue
	// (per-shard growth, no global capacity): the capacity argument of
	// New becomes each shard's ring size instead of a bound, Cap()
	// reports 0, Enqueue never reports full, and Footprint() is live.
	Unbounded bool
	// Core tunes the ring cores; nil selects the paper's defaults.
	Core *ringcore.Options
}

// Queue is a sharded MPMC FIFO of values of type T over
// []ringcore.Core — one code path whether the shards are bounded or
// unbounded.
type Queue[T any] struct {
	cores    []ringcore.Core[T]
	perCap   uint64        // per-shard capacity; 0 with unbounded shards
	met      *metrics.Sink // shared with every shard via Options.Core
	nextHome atomic.Int64
}

// Handle is a goroutine's capability to use a sharded Queue. Like the
// underlying core handles it must not be shared between goroutines.
type Handle[T any] struct {
	hs     []ringcore.Handle[T] //wfq:stable
	home   int                  //wfq:stable
	met    *metrics.Sink        //wfq:stable nil = disabled
	cursor int                  // steal scan position, persists across calls
	streak int                  // consecutive steals from shard `cursor`
	// one is the scalar Dequeue's steal buffer; it is zeroed after
	// each steal so the handle keeps no reference to a value.
	one [1]T
}

// stealStride bounds how many consecutive values a handle steals from
// one foreign shard before its steal cursor rotates onward. Sticking
// to a yielding shard is cheap; the bound guarantees the steal scan
// visits every shard at least once per stealStride*Shards steals, so
// no shard starves even when one stays hot.
const stealStride = 128

// New returns an empty sharded queue usable by at most maxThreads
// handles. With bounded shards (the default), capacity is the TOTAL
// capacity split evenly across the Shards shards, and capacity /
// Shards must be a power of two >= 2. With Options.Unbounded,
// capacity is instead the ring size of EVERY shard's linked rings (a
// power of two >= 2, a growth granularity rather than a bound). Every
// handle registers with every shard, so each shard is built for
// maxThreads.
func New[T any](capacity uint64, maxThreads int, opts *Options) (*Queue[T], error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	q := &Queue[T]{met: o.Core.Sink()}
	if o.Unbounded {
		for i := 0; i < Shards; i++ {
			u, err := unbounded.New[T](ringcore.KindWCQ, capacity, maxThreads, o.Core)
			if err != nil {
				return nil, fmt.Errorf("sharded: shard %d: %w", i, err)
			}
			q.cores = append(q.cores, u)
		}
		return q, nil
	}
	if capacity == 0 || capacity%Shards != 0 {
		return nil, fmt.Errorf("sharded: capacity %d not divisible by %d shards", capacity, Shards)
	}
	per := capacity / Shards
	if per < 2 || per&(per-1) != 0 {
		return nil, fmt.Errorf("sharded: per-shard capacity %d (= %d/%d) must be a power of two >= 2",
			per, capacity, Shards)
	}
	q.perCap = per
	for i := 0; i < Shards; i++ {
		core, err := ringcore.New[T](ringcore.KindWCQ, per, maxThreads, o.Core)
		if err != nil {
			return nil, fmt.Errorf("sharded: shard %d: %w", i, err)
		}
		q.cores = append(q.cores, core)
	}
	return q, nil
}

// Acquire allocates a handle with home-shard affinity assigned
// round-robin across registrations. Safe to call concurrently.
func (q *Queue[T]) Acquire() (ringcore.Handle[T], error) {
	home := int((q.nextHome.Add(1) - 1) % Shards)
	hs := make([]ringcore.Handle[T], Shards)
	for i, core := range q.cores {
		ch, err := core.Acquire()
		if err != nil {
			return nil, fmt.Errorf("sharded: registering with shard %d: %w", i, err)
		}
		hs[i] = ch
	}
	return &Handle[T]{hs: hs, home: home, met: q.met, cursor: home}, nil
}

// Stats snapshots the composition's metrics sink. The shards record
// into the same sink (threaded through Options.Core), so this single
// snapshot covers steal traffic AND every shard's core events.
func (q *Queue[T]) Stats() metrics.Snapshot { return q.met.Snapshot() }

// Cap returns the total capacity (sum over shards), or 0 with
// unbounded shards.
func (q *Queue[T]) Cap() uint64 { return q.perCap * Shards }

// Footprint returns the bytes the shards retain right now, summed
// through the ringcore contract: a constant for bounded shards, a
// live grow-and-shrink figure for unbounded ones.
func (q *Queue[T]) Footprint() uint64 {
	var total uint64
	for _, c := range q.cores {
		total += c.Footprint()
	}
	return total
}

// Rings returns the live linked rings summed over the shards, or 0
// with bounded shards, whose rings never change.
func (q *Queue[T]) Rings() int {
	var total int
	for _, c := range q.cores {
		if r, ok := c.(interface{ Rings() int }); ok {
			total += r.Rings()
		}
	}
	return total
}

// Empty reports that every shard held no unclaimed value at some
// (per-shard) instant during the call. The per-shard probes happen at
// different instants, which is still the guarantee a sequential
// producer needs: its earlier value either sat unclaimed in its home
// shard when that shard was probed (probe false, no handoff) or had
// been claimed by a dequeuer that then owns it — this queue promises
// per-handle FIFO only, so cross-shard interleaving carries no
// obligation. One-sided like the core probes: false proves nothing.
//
//wfq:noalloc
func (q *Queue[T]) Empty() bool {
	for _, c := range q.cores {
		if !c.Empty() {
			return false
		}
	}
	return true
}

// Enqueue appends v to the handle's home shard; false means that shard
// is full (see the package comment for the capacity relaxation; with
// unbounded shards it cannot happen).
//
//wfq:noalloc
func (h *Handle[T]) Enqueue(v T) bool {
	return h.hs[h.home].Enqueue(v)
}

// Dequeue removes the oldest value of some shard: the home shard
// first (the hit case in balanced workloads — one probe, and every
// handle preferentially drains the shard it fills), then the steal
// scan over the others. ok is false only after home plus a full scan
// found every shard empty.
//
//wfq:noalloc
func (h *Handle[T]) Dequeue() (v T, ok bool) {
	if v, ok = h.hs[h.home].Dequeue(); ok {
		return v, ok
	}
	if h.steal(h.one[:]) == 0 {
		return v, false
	}
	v, h.one[0] = h.one[0], v // v is zero here: clear the buffer
	return v, true
}

// EnqueueBatch appends a prefix of vs in order to the home shard
// through the shard's native ring batch (one reservation F&A per
// batch); it returns how many values were enqueued (a prefix of vs,
// preserving per-handle FIFO order — a short count means the home
// shard filled up, which unbounded shards never do). The home shard
// is resolved once for the whole batch.
//
//wfq:noalloc
func (h *Handle[T]) EnqueueBatch(vs []T) int {
	return h.hs[h.home].EnqueueBatch(vs)
}

// drainInto repeatedly batch-dequeues shard s into out until out is
// full or the shard appears empty, returning how many values were
// written and whether the shard looked drained.
//
//wfq:noalloc
func (h *Handle[T]) drainInto(s int, out []T) (n int, drained bool) {
	sh := h.hs[s]
	for n < len(out) {
		got := sh.DequeueBatch(out[n:])
		if got == 0 {
			return n, true
		}
		n += got
	}
	return n, false
}

// DequeueBatch fills out with values: a draining run of native ring
// batches from the home shard first, then the steal scan over the
// other shards. It returns how many values were written; 0 means home
// plus a full scan found all shards empty.
//
//wfq:noalloc
func (h *Handle[T]) DequeueBatch(out []T) int {
	filled, _ := h.drainInto(h.home, out)
	if filled < len(out) {
		filled += h.steal(out[filled:])
	}
	return filled
}

// steal fills a prefix of out (len(out) >= 1) from the foreign shards,
// scanning round-robin from the persistent cursor, and returns its
// length. A shard that still has values after a run keeps the cursor
// (it likely has more), until stealStride consecutive values came
// from it; then the cursor rotates onward. A run is cut short at that
// bound, so it holds for every buffer size, scalar Dequeue's one slot
// included. A shard that drains moves the cursor past it. Each scan
// counts one StealAttempt; a scan that yields a value counts one
// StealHit, so hit/attempt is the steal success rate.
//
//wfq:noalloc
func (h *Handle[T]) steal(out []T) (filled int) {
	home := h.home // hoisted: loop-invariant (//wfq:stable)
	h.met.Inc(metrics.StealAttempt)
	start := h.cursor
	for i := 0; i < Shards && filled < len(out); i++ {
		s := (start + i) % Shards
		if s == home {
			continue // already probed
		}
		streak := 0
		if s == h.cursor {
			streak = h.streak
		}
		run := out[filled:]
		if len(run) > stealStride-streak {
			run = run[:stealStride-streak]
		}
		got, drained := h.drainInto(s, run)
		filled += got
		switch {
		case drained && got > 0:
			h.cursor, h.streak = (s+1)%Shards, 0
		case !drained:
			if streak += got; streak >= stealStride {
				s, streak = (s+1)%Shards, 0
			}
			h.cursor, h.streak = s, streak
		}
	}
	if filled > 0 {
		h.met.Inc(metrics.StealHit)
	}
	return filled
}
