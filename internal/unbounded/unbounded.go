// Package unbounded implements the paper's Appendix A construction:
// unbounded queues built by linking bounded rings — LSCQ (SCQ rings)
// and UWCQ (wCQ rings). When the tail ring fills up, it is sealed and
// a fresh ring is appended; dequeuers advance past the nodes of
// sealed, drained rings. Outer-list operations are rare, so throughput
// is dominated by the ring operations, as the paper observes.
//
// Both variants are one construction: every ring is the Figure 2
// payload queue *ringcore.Queue[T] that ringcore.New builds for either
// kind, so the kind is a constructor parameter instead of a pair of
// hand-written adapter stacks. The composition holds rings and views
// as those concrete types, so its calls into a ring are direct, not
// dispatched through the ringcore.Core / ringcore.Handle interfaces.
// The composition is itself a ringcore.Core (and its Handle a
// ringcore.Handle), so the sharded queue, the registry and the
// blocking facade consume it with no adapter.
//
// A sealed ring takes no more values, and the ring itself carries the
// seal (ringcore.Queue.Seal): its Dequeue and DequeueBatch then
// recycle no index they free, so dequeuers call the same two methods
// on every ring and only the unsealed tail ring recycles.
// A ring serves its first lap from its
// counter of never-used indices, so a ring that is filled once, then
// sealed and drained, never touches its free-index ring, and since
// ringcore.New builds that ring on the first recycle, it never
// allocates one either: only the unsealed tail ring builds its own.
// Every ring is built with the queue's maxThreads, so each id below it
// has a kept-index slot and a run in every ring, on a 64 B line per id
// of either ring kind. A handle with one claims those indices 16 at a
// time and keeps the rest as its run, which other handles steal from
// before they report the ring full; an
// LSCQ handle with an id at or past maxThreads claims them one at a
// time. The short enqueue that sealed a ring found that counter
// exhausted and every run empty at its pass, so an enqueuer still in
// flight on it either already holds an index or finds one that its
// free-index ring, a kept-index slot or its own run still holds (its
// value lands and is drained), or finds none and moves on to the
// successor, as it does on a full ring. A run is lost to its ring only
// when a seal races a write to it: the sealer's pass read the run
// before its owner stored the fresh indices it had claimed, the
// leftover of a steal, or an index its head view freed. Fresh indices
// are lost only under the first race, at most 15 (runLen-1) per handle
// per seal; the others are recycled indices, which go unused as one
// returned to the free-index ring behind the pass does. The cost is
// capacity, not correctness: the ring drains as any other. The head
// view only dequeues and the tail view only enqueues, so neither keeps
// an index in steady state; the kept-index slots serve handles that do
// both on one ring. The head view appends what it frees on the tail
// ring to the handle's run there, which the tail view, sharing the id,
// takes from.
//
// Each handle has one thread id, as each thread does in the appendix,
// and uses the record with that id in every ring: handle i is record
// i. A handle holds two views, one for each end of the list, and
// moving a view to another ring is a QueueHandle.Retarget, so a handle
// keeps no memory of the rings it has left. The ids are unique and
// below the per-ring census, so no two goroutines ever share a record
// in one ring, and a record no handle uses is never pending, so wCQ's
// helping scan over every record is unaffected by ids that go unused.
//
// No operation reports an error: ring construction cannot fail once
// New has succeeded, and a view moves between rings without
// registering, so a failure is a broken invariant and panics where it
// is detected, instead of reading as a full or empty queue a caller
// would spin on.
//
// As in the appendix, a ring is linked once and never reused: once head
// moves past its drained node, nothing can reach it again and it goes
// to the garbage collector with the node, so a drained queue holds one
// live ring. An enqueuer that builds a successor but loses the race to
// link it drops that ring, as Enqueue_Unbounded (Fig. 13) frees it:
// the ring was never linked, so no other handle has seen it, and its
// seed values are retried on the winner's ring (see extend). A
// handle's two views may still point at drained rings, so each handle
// keeps at most two rings reachable beyond the list, and a UWCQ view
// may also keep the free-index ring of a ring it left, until it binds
// another.
//
// Faithfulness note: the appendix links rings with the CRTurn wait-free
// list so the WHOLE unbounded queue is wait-free. This port uses the
// Michael & Scott-style outer list that LSCQ/LCRQ use (the paper's own
// LSCQ formulation); the rings retain their wait-free/lock-free
// progress and the list itself is lock-free. ARCHITECTURE.md records
// the substitution.
package unbounded

import (
	"fmt"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/pad"
	"repro/internal/ringcore"
)

// Compile-time checks: the composition is consumed through the same
// contract as a single ring.
var (
	_ ringcore.Core[int]   = (*Queue[int])(nil)
	_ ringcore.Handle[int] = (*Handle[int])(nil)
)

// enqStripes is the number of drain-barrier counters on each node.
// Handles take stripes round-robin, so up to enqStripes handles enqueue
// without sharing a cache line; further handles share stripes, which
// costs contention, not correctness.
const enqStripes = 8

// node is one link of the outer list. Nodes are never reused and a
// ring is linked at most once, so the head/tail/next pointers cannot
// suffer ABA.
//
// The node carries the drain barrier that rests on its ring's seal.
// An enqueuer adds 1 to its handle's stripe of enqs, then touches the
// ring only if it is still unsealed, and subtracts the 1 when it is
// done. drained loads the seal, then every stripe, then asks the ring
// whether it is empty. With Go's sequentially consistent atomics each
// side sees the other: once drained sees the seal and every stripe at
// 0, every enqueuer that found the ring open has left, and every later
// one sees the seal.
//
// r and next are read often but written about once per node; each
// stripe sits on its own cache line, so enqueuers on different handles
// never invalidate those reads or each other.
type node[T any] struct {
	r    *ringcore.Queue[T]
	next atomic.Pointer[node[T]]
	_    pad.Line
	enqs [enqStripes]pad.Int64
}

// drained reports that no value can ever be produced by n's ring
// again: the ring is sealed, no enqueuer that found it open is still
// in flight, and the ring has handed out every value it took.
//
//wfq:noalloc
func (n *node[T]) drained() bool {
	if !n.r.Sealed() {
		return false
	}
	for i := range n.enqs {
		if n.enqs[i].V.Load() != 0 {
			return false
		}
	}
	return n.r.Empty()
}

// Queue is an unbounded MPMC FIFO of values of type T, linking bounded
// rings of the configured kind. Enqueue never reports full: a full
// tail ring gets a successor.
//
//wfq:isolate
type Queue[T any] struct {
	_       pad.Line
	head    atomic.Pointer[node[T]]
	_       pad.Line
	tail    atomic.Pointer[node[T]]
	_       pad.Line
	mk      func() (*ringcore.Queue[T], error)
	met     *metrics.Sink //wfq:stable nil = disabled; shared with the rings via Options
	handles atomic.Int64  //wfq:cold registration only
	// maxHandles bounds Handle() calls (0 = unlimited). Census kinds
	// (wCQ) set it to the per-ring thread census, so every handle's id
	// names a record in every ring.
	maxHandles int
	ringCap    uint64
}

// Handle is a goroutine's access to a Queue. The n-th handle has id
// n-1 and uses the record with that id in every ring it touches. A
// Handle must not be used by two goroutines concurrently.
type Handle[T any] struct {
	q *Queue[T]
	// stripe picks this handle's drain-barrier counter on every node.
	stripe uint
	// tail and head are this handle's views of the ring it last used
	// at each end of the list. Both use the handle's id; they may view
	// the same ring, one call after the other.
	tail, head *ringcore.QueueHandle[T]
	// one carries a scalar operation's value through the batch
	// operation on a miss: into EnqueueBatch when the tail ring turns
	// over, out of DequeueBatch when the head ring is empty. It is
	// zeroed after every use so the handle keeps no reference.
	one [1]T
}

// New returns an unbounded queue linking rings of the given kind,
// each holding ringCap values (a power of two >= 2). For census ring
// kinds (KindWCQ, the paper's UWCQ) maxThreads bounds Handle — the
// census is per ring, and bounding handles up front is what gives
// every handle's id a record in every ring; census-free kinds (the
// paper's LSCQ) accept any number of handles, and only the first
// maxThreads get a kept-index slot and a run.
func New[T any](kind ringcore.Kind, ringCap uint64, maxThreads int, opts *ringcore.Options) (*Queue[T], error) {
	maxHandles := 0 // unlimited
	if kind.Census() {
		maxHandles = maxThreads // the wCQ ring below rejects one below 1
	}
	mk := func() (*ringcore.Queue[T], error) {
		return ringcore.New[T](kind, ringCap, maxThreads, opts)
	}
	first, err := mk()
	if err != nil {
		return nil, err
	}
	q := &Queue[T]{mk: mk, ringCap: ringCap, maxHandles: maxHandles, met: opts.Sink()}
	n := &node[T]{r: first}
	q.head.Store(n)
	q.tail.Store(n)
	return q, nil
}

// Handle returns a per-goroutine handle whose two views start on the
// tail ring with the next id. For census ring kinds it fails once
// maxThreads handles exist, so an id always names a record in every
// ring.
func (q *Queue[T]) Handle() (*Handle[T], error) {
	n := q.handles.Add(1)
	if q.maxHandles > 0 && n > int64(q.maxHandles) {
		q.handles.Add(-1)
		return nil, fmt.Errorf("unbounded: handle census exhausted (maxThreads %d)", q.maxHandles)
	}
	h := &Handle[T]{q: q, stripe: uint(n-1) % enqStripes}
	r := q.tail.Load().r
	var err error
	if h.tail, err = r.HandleAt(int(n - 1)); err == nil {
		h.head, err = r.HandleAt(int(n - 1))
	}
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Acquire is Handle behind the ringcore.Core contract.
func (q *Queue[T]) Acquire() (ringcore.Handle[T], error) {
	h, err := q.Handle()
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Cap reports 0: the queue has no capacity bound.
func (q *Queue[T]) Cap() uint64 { return 0 }

// Stats snapshots the queue's metrics sink: the linked rings record
// their core events into the same sink (threaded through Options), so
// one snapshot covers ring turnover AND the per-ring slow paths.
func (q *Queue[T]) Stats() metrics.Snapshot { return q.met.Snapshot() }

// RingCap returns the capacity of each ring.
func (q *Queue[T]) RingCap() uint64 { return q.ringCap }

// Rings returns the number of live rings — the current length of the
// outer list. Racy by nature; for introspection and figures.
func (q *Queue[T]) Rings() int {
	n := 0
	for ln := q.head.Load(); ln != nil; ln = ln.next.Load() {
		n++
	}
	return n
}

// Footprint returns the bytes retained right now: every live ring of
// the outer list, each at its own Footprint (with its free-index ring
// once it has built one). This is the live-memory signal of the
// paper's Fig. 10a applied to the unbounded variants — it grows while
// a burst is buffered and shrinks back to one ring once drained.
func (q *Queue[T]) Footprint() uint64 {
	var f uint64
	for n := q.head.Load(); n != nil; n = n.next.Load() {
		f += n.r.Footprint()
	}
	return f
}

// view returns v, first moved to n's ring if it last viewed another:
// a hit is one pointer comparison.
//
//wfq:noalloc
func view[T any](v *ringcore.QueueHandle[T], n *node[T]) *ringcore.QueueHandle[T] {
	if v.Queue() != n.r {
		v.Retarget(n.r)
	}
	return v
}

// Enqueue appends v and returns true: the queue is never full. When the
// tail ring is sealed or full, EnqueueBatch seals it for good and
// appends a fresh ring seeded with v (as Enqueue_Unbounded does in
// Fig. 13).
//
//wfq:noalloc
func (h *Handle[T]) Enqueue(v T) bool {
	ltail := h.q.tail.Load()
	enqs := &ltail.enqs[h.stripe%enqStripes].V
	enqs.Add(1)
	if !ltail.r.Sealed() && view(h.tail, ltail).Enqueue(v) {
		enqs.Add(-1)
		return true
	}
	enqs.Add(-1)
	h.one[0] = v
	h.EnqueueBatch(h.one[:])
	var zero T
	h.one[0] = zero // release the reference
	return true
}

// EnqueueBatch appends vs in order and returns len(vs), filling the
// current tail ring with its native batch reservation and rolling over
// to a fresh ring with the remainder on partial success — so a batch
// larger than one ring's free space spans rings without losing its
// internal order.
//
//wfq:noalloc
func (h *Handle[T]) EnqueueBatch(vs []T) int {
	q := h.q
	for sent := 0; sent < len(vs); {
		ltail := q.tail.Load()
		enqs := &ltail.enqs[h.stripe%enqStripes].V
		enqs.Add(1)
		if !ltail.r.Sealed() {
			if sent += view(h.tail, ltail).EnqueueBatch(vs[sent:]); sent == len(vs) {
				enqs.Add(-1)
				break
			}
			// Full (or short) mid-batch: nothing lands here again.
			ltail.r.Seal()
		}
		// From here on the ring is not touched, so the count can drop.
		enqs.Add(-1)
		sent += h.extend(ltail, vs[sent:])
	}
	return len(vs)
}

// extend moves the list past ltail, whose ring is sealed. When a
// successor is already linked it helps swing tail to it (the linker may have
// stalled); otherwise it appends a ring seeded with as much of vs as
// fits. It returns how many values landed — 0 when another enqueuer
// linked its ring first. The loser's ring was never linked, so no
// other handle has seen it: it goes to the garbage collector, and the
// caller retries its seeds, still in vs, on the winner's ring. vs is
// never empty, and the appended ring is empty, so the seed always
// lands.
//
//wfq:noalloc
func (h *Handle[T]) extend(ltail *node[T], vs []T) int {
	q := h.q
	if next := ltail.next.Load(); next != nil {
		q.tail.CompareAndSwap(ltail, next)
		return 0
	}
	nr := q.newRing()
	nn := &node[T]{r: nr} //wfq:ignore hotalloc growth path: one node per ring turnover
	h.tail.Retarget(nr)
	m := h.tail.EnqueueBatch(vs)
	if m == 0 {
		panic("unbounded: fresh ring rejected its seed")
	}
	if ltail.next.CompareAndSwap(nil, nn) {
		q.tail.CompareAndSwap(ltail, nn)
		q.met.Inc(metrics.RingSeal)
		return m
	}
	return 0
}

// newRing builds the ring for a turnover exactly as New built the
// first one, so its construction cannot fail.
//
//wfq:allocok ring turnover: at most once per ringCap values, and once more per lost append race
func (q *Queue[T]) newRing() *ringcore.Queue[T] {
	r, err := q.mk()
	if err != nil {
		panic("unbounded: ring construction failed: " + err.Error())
	}
	q.met.Inc(metrics.RingAlloc)
	return r
}

// Dequeue removes the oldest value; ok is false when the whole queue
// is empty. Like Enqueue it probes the current ring once; on a miss
// (the head ring empty) it is the batch dequeue over a batch of one.
// A sealed ring's Dequeue drains its indices instead of recycling
// them (see ringcore.Queue.Seal).
//
//wfq:noalloc
func (h *Handle[T]) Dequeue() (v T, ok bool) {
	if v, ok = view(h.head, h.q.head.Load()).Dequeue(); ok {
		return v, true
	}
	if h.DequeueBatch(h.one[:]) == 0 {
		return v, false
	}
	v = h.one[0]
	var zero T
	h.one[0] = zero // release the reference
	return v, true
}

// DequeueBatch fills a prefix of out with the oldest values, draining
// across ring boundaries (head advances past a drained ring and the
// scan continues on its successor) without reordering — ring G is
// drained before any value of ring G+1 is taken, so FIFO survives the
// batch. It returns how many values were written; 0 means the whole
// queue appeared empty. A batch cut short by a ring whose producers
// are still in flight returns the partial prefix instead of spinning.
// As in Dequeue, a sealed ring's indices are drained, not recycled.
//
//wfq:noalloc
func (h *Handle[T]) DequeueBatch(out []T) int {
	q := h.q
	filled := 0
	for filled < len(out) {
		lhead := q.head.Load()
		hv := view(h.head, lhead)
		if n := hv.DequeueBatch(out[filled:]); n > 0 {
			filled += n
			continue
		}
		next := lhead.next.Load()
		if next == nil {
			return filled // no successor: nothing more buffered
		}
		if !lhead.drained() {
			if filled > 0 {
				return filled // partial batch beats spinning on in-flight enqueues
			}
			continue
		}
		// One more look after the drain barrier, which saw the seal,
		// then advance. A ring left behind is reachable only by
		// stragglers that loaded this node earlier, and it has nothing
		// left to give them.
		if n := hv.DequeueBatch(out[filled:]); n > 0 {
			filled += n
			continue
		}
		q.head.CompareAndSwap(lhead, next)
	}
	return filled
}

// Empty reports that the queue held no unclaimed value relevant to
// per-producer ordering at some instant during the call: the outer
// list was a single node (head == tail) and that node's ring counters
// had caught up. One-sided, like the bounded cores' probe: any value a
// sequential producer enqueued before this call was either in that
// lone ring (then the ring probe proves it was claimed) or in a ring
// already drained. Values other producers land concurrently in a
// successor ring carry no ordering obligation toward this probe's
// caller — the blocking facade, like the sharded queue, promises
// per-handle FIFO only.
//
//wfq:noalloc
func (q *Queue[T]) Empty() bool {
	h := q.head.Load()
	return h == q.tail.Load() && h.r.Empty()
}
