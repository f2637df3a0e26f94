// Package unbounded implements the paper's Appendix A construction:
// unbounded queues built by linking bounded rings — LSCQ (SCQ rings)
// and UWCQ (wCQ rings). When the tail ring fills up, its list node is
// sealed and a fresh ring is appended; dequeuers advance past sealed,
// drained nodes. Outer-list operations are rare, so throughput is
// dominated by the ring operations, as the paper observes.
//
// Both variants are one construction: the rings are consumed through
// the ringcore contract (ringcore.Core / ringcore.Handle), so the
// kind is a constructor parameter instead of a pair of hand-written
// adapter stacks, and any future ring kind rides along for free. The
// composition is itself a ringcore.Core (and its Handle a
// ringcore.Handle), so the sharded queue, the registry and the
// blocking facade consume it with no adapter. The rings themselves
// have no lifecycle: sealing and draining happen on the list node that
// holds a ring, so a drained ring is reused as it stands.
//
// No operation reports an error: ring construction and ring
// registration cannot fail once New and Handle have succeeded, so a
// failure there is a broken invariant and panics where it is detected,
// instead of reading as a full or empty queue a caller would spin on.
//
// To keep the paper's "bounded memory usage" story honest under churn,
// drained rings are not abandoned to the garbage collector: a bounded
// free-list (the ring pool) recycles them, so a steady
// burst-and-drain workload reaches a fixed ring population instead of
// allocating a fresh ring per turnover. Recycling a ring while a
// straggler still holds a reference would be unsound, so each list
// node carries pin counters and a retired flag (see the comment on
// node); a ring whose node is pinned at retirement is simply left to
// the GC.
//
// Faithfulness note: the appendix links rings with the CRTurn wait-free
// list so the WHOLE unbounded queue is wait-free. This port uses the
// Michael & Scott-style outer list that LSCQ/LCRQ use (the paper's own
// LSCQ formulation); the rings retain their wait-free/lock-free
// progress and the list itself is lock-free, but ring turnover
// briefly serializes on the recycling pool's mutex (once per ringCap
// values). ARCHITECTURE.md records both substitutions.
package unbounded

import (
	"fmt"
	"sync"
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

// DefaultPoolRings is the default capacity of the drained-ring
// free-list: how many drained rings a queue retains for reuse before
// handing surplus rings to the garbage collector.
const DefaultPoolRings = 4

// node is one link of the outer list. Nodes are never reused (only
// their rings are), so the head/tail/next pointers cannot suffer ABA.
//
// The node, not its ring, carries the seal and the two handshakes that
// rest on it. Both are the same sequentially consistent pattern — one
// side increments a counter BEFORE it loads a flag, the other stores
// or loads the flag BEFORE it loads the counter — so with Go's atomics
// each side sees the other:
//
//   - Drain barrier (enqs, sealed). An enqueuer increments enqs, then
//     touches the ring only if sealed is still false. drained loads
//     sealed, then enqs, then asks the ring whether it is empty: once
//     it sees sealed with enqs == 0, every enqueuer that found the node
//     open has left, and every later one sees the seal.
//   - Recycle barrier (pins and enqs, retired). Dequeuers pin with
//     pins and back off if retired is set; enqueuers pin with enqs and
//     already back off on the seal, which precedes retirement. The
//     dequeuer that advances head past the node stores retired, then
//     loads both counters, and recycles the ring only when both are 0.
//     Either a straggler's pin is visible (the ring is left to the GC)
//     or the straggler never touches the ring. Only unpinned retired
//     rings enter the pool, so a recycled ring is reachable exclusively
//     through its new node.
//
// r, next and the two flags are read often but written about once per
// node; pins and enqs each sit on their own cache line, so the
// dequeuers' and the enqueuers' counter traffic never invalidates
// those reads or each other.
type node[T any] struct {
	r       ringcore.Core[T]
	next    atomic.Pointer[node[T]]
	sealed  atomic.Bool
	retired atomic.Bool
	_       pad.Line
	pins    atomic.Int64
	_       pad.Line
	enqs    atomic.Int64
	_       pad.Line
}

// drained reports that no value can ever be produced by n's ring
// again: the node is sealed, no enqueuer that found it open is still
// in flight, and the ring has handed out every value it took.
//
//wfq:noalloc
func (n *node[T]) drained() bool {
	return n.sealed.Load() && n.enqs.Load() == 0 && n.r.Empty()
}

// Queue is an unbounded MPMC FIFO of values of type T, linking bounded
// rings of the configured kind. Enqueue never reports full: a full
// tail ring gets a fresh (pooled or newly allocated) successor.
//
//wfq:isolate
type Queue[T any] struct {
	_       pad.Line
	head    atomic.Pointer[node[T]]
	_       pad.Line
	tail    atomic.Pointer[node[T]]
	_       pad.Line
	mk      func() (ringcore.Core[T], error)
	met     *metrics.Sink //wfq:stable nil = disabled; shared with the rings via Options
	pool    ringPool[T]
	handles atomic.Int64 //wfq:cold registration only
	// maxHandles bounds Handle() calls (0 = unlimited). Census kinds
	// (wCQ) set it to the per-ring thread census so view registration
	// can never fail.
	maxHandles int
	ringCap    uint64
}

// Handle is a goroutine's view of a Queue. It lazily registers with
// each ring generation it touches, at most once per ring. A Handle
// must not be used by two goroutines concurrently.
type Handle[T any] struct {
	q *Queue[T]
	// tail and head cache the view this handle last used on each side
	// of the list, so the common case costs one comparison. views holds
	// every registration the handle still needs, for the misses.
	tail, head cachedView[T]
	views      map[ringcore.Core[T]]ringcore.Handle[T]
	// one carries a scalar operation's value through the batch
	// operation on a miss: into EnqueueBatch when the tail ring turns
	// over, out of DequeueBatch when the head ring is empty. It is
	// zeroed after every use so the handle keeps no reference.
	one [1]T
}

// cachedView is one ring and this handle's registration with it.
type cachedView[T any] struct {
	r ringcore.Core[T]
	v ringcore.Handle[T]
}

// New returns an unbounded queue linking rings of the given kind,
// each holding ringCap values (a power of two >= 2). For census ring
// kinds (KindWCQ, the paper's UWCQ) maxThreads bounds Handle — the
// census is per ring, and bounding handles up front is what makes
// every later ring registration infallible; census-free kinds (the
// paper's LSCQ) accept any number of handles and ignore maxThreads.
func New[T any](kind ringcore.Kind, ringCap uint64, maxThreads int, opts *ringcore.Options) (*Queue[T], error) {
	maxHandles := 0
	if kind.Census() {
		if maxThreads < 1 {
			return nil, fmt.Errorf("unbounded: maxThreads must be >= 1 for ring kind %s, got %d", kind, maxThreads)
		}
		maxHandles = maxThreads
	}
	mk := func() (ringcore.Core[T], error) {
		return ringcore.New[T](kind, ringCap, maxThreads, opts)
	}
	q := &Queue[T]{mk: mk, ringCap: ringCap, maxHandles: maxHandles, met: opts.Sink()}
	q.pool.max = DefaultPoolRings
	first, err := mk()
	if err != nil {
		return nil, err
	}
	n := &node[T]{r: first}
	q.head.Store(n)
	q.tail.Store(n)
	return q, nil
}

// Handle returns a per-goroutine view. For census ring kinds it fails
// once maxThreads handles exist.
func (q *Queue[T]) Handle() (*Handle[T], error) {
	if q.maxHandles > 0 && q.handles.Add(1) > int64(q.maxHandles) {
		q.handles.Add(-1)
		return nil, fmt.Errorf("unbounded: handle census exhausted (maxThreads %d)", q.maxHandles)
	}
	return &Handle[T]{q: q, views: make(map[ringcore.Core[T]]ringcore.Handle[T])}, nil
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
// outer list, excluding pooled rings. Racy by nature; for
// introspection and figures.
func (q *Queue[T]) Rings() int {
	n := 0
	for ln := q.head.Load(); ln != nil; ln = ln.next.Load() {
		n++
	}
	return n
}

// Footprint returns the bytes retained right now: every live ring of
// the outer list plus the rings parked in the free-list. This is the
// live-memory signal of the paper's Fig. 10a applied to the unbounded
// variants — it grows while a burst is buffered and shrinks back to
// (1 + pool) rings once drained.
func (q *Queue[T]) Footprint() uint64 {
	f := q.pool.footprint()
	for n := q.head.Load(); n != nil; n = n.next.Load() {
		f += n.r.Footprint()
	}
	return f
}

// view returns this handle's view of r, consulting the one-entry cache
// c first: a ring the handle used last time on the same side is a
// pointer comparison away.
//
//wfq:noalloc
func (h *Handle[T]) view(c *cachedView[T], r ringcore.Core[T]) ringcore.Handle[T] {
	if c.r == r {
		return c.v
	}
	return h.miss(c, r)
}

// miss finds or creates the view of r and caches it in c. Entries are
// pruned only for rings that can no longer recur (neither live, nor
// pooled, nor in flight between structures during an append or a
// retire), so a handle registers with any given ring at most once —
// the invariant that keeps wCQ's per-ring census sufficient. Pruning
// clears a cached entry along with its map entry, so the cache never
// holds a ring the map has forgotten. Registration cannot fail: Handle
// caps the handle count at the rings' census.
//
//wfq:allocok per-ring view cache: registers once per ring generation
func (h *Handle[T]) miss(c *cachedView[T], r ringcore.Core[T]) ringcore.Handle[T] {
	v, ok := h.views[r]
	if !ok {
		var err error
		if v, err = r.Acquire(); err != nil {
			panic("unbounded: ring view registration failed: " + err.Error())
		}
		h.views[r] = v
	}
	*c = cachedView[T]{r: r, v: v}
	if !ok && len(h.views) > 16 {
		keep := h.q.reachableRings()
		for k := range h.views {
			if !keep[k] {
				delete(h.views, k)
			}
		}
		if !keep[h.tail.r] {
			h.tail = cachedView[T]{}
		}
		if !keep[h.head.r] {
			h.head = cachedView[T]{}
		}
	}
	return v
}

// reachableRings snapshots every ring that can still recur: live,
// pooled, or in flight between structures. The whole snapshot runs
// under the pool mutex — every transition between the three states
// takes that lock (takeRing/extend/put/markInflight), so a ring
// mid-transition is always caught in at least one scan; a two-phase
// snapshot without the lock could miss a ring that moved from pool to
// live list between the scans (extend unmarks only after the node is
// linked), and a missed ring costs a second census registration on
// reuse.
func (q *Queue[T]) reachableRings() map[ringcore.Core[T]]bool {
	keep := map[ringcore.Core[T]]bool{}
	q.pool.mu.Lock()
	defer q.pool.mu.Unlock()
	for ln := q.head.Load(); ln != nil; ln = ln.next.Load() {
		keep[ln.r] = true
	}
	for _, r := range q.pool.rings {
		keep[r] = true
	}
	for r := range q.pool.inflight {
		keep[r] = true
	}
	return keep
}

// takeRing produces the next tail ring: from the pool when one is
// parked there, freshly allocated otherwise. Either way the ring is
// registered as in flight until extend links it or parks it again, so
// concurrent view pruning cannot orphan census registrations. A fresh
// ring is built exactly as New built the first one, so its
// construction cannot fail.
//
//wfq:allocok ring turnover: pooled or freshly allocated, once per ringCap values
func (q *Queue[T]) takeRing() ringcore.Core[T] {
	if r, ok := q.pool.get(); ok {
		q.met.Inc(metrics.RingPoolHit)
		return r
	}
	r, err := q.mk()
	if err != nil {
		panic("unbounded: ring construction failed: " + err.Error())
	}
	q.pool.markInflight(r)
	q.met.Inc(metrics.RingAlloc)
	return r
}

// Enqueue appends v and returns true: the queue is never full. When the
// tail node is sealed or its ring full, EnqueueBatch seals the node for
// good and appends a fresh ring seeded with v (as Enqueue_Unbounded
// does in Fig. 13).
//
//wfq:noalloc
func (h *Handle[T]) Enqueue(v T) bool {
	ltail := h.q.tail.Load()
	ltail.enqs.Add(1)
	if !ltail.sealed.Load() && h.view(&h.tail, ltail.r).Enqueue(v) {
		ltail.enqs.Add(-1)
		return true
	}
	ltail.enqs.Add(-1)
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
		ltail.enqs.Add(1)
		if !ltail.sealed.Load() {
			if sent += h.view(&h.tail, ltail.r).EnqueueBatch(vs[sent:]); sent == len(vs) {
				ltail.enqs.Add(-1)
				break
			}
			// Full (or short) mid-batch: nothing lands here again.
			ltail.sealed.Store(true)
		}
		// From here on the ring is not touched, so the pin can go.
		ltail.enqs.Add(-1)
		sent += h.extend(ltail, vs[sent:])
	}
	return len(vs)
}

// extend moves the list past ltail, a sealed node. When a successor is
// already linked it helps swing tail to it (the linker may have
// stalled); otherwise it appends a fresh ring seeded with as much of
// vs as fits. It returns how many values landed — 0 when another
// enqueuer linked its ring first, in which case the caller retries on
// the winner's. vs is never empty, and a fresh ring is empty, so the
// seed always lands.
//
//wfq:noalloc
func (h *Handle[T]) extend(ltail *node[T], vs []T) int {
	q := h.q
	if next := ltail.next.Load(); next != nil {
		q.tail.CompareAndSwap(ltail, next)
		return 0
	}
	nr := q.takeRing()
	nv := h.view(&h.tail, nr)
	m := nv.EnqueueBatch(vs)
	if m == 0 {
		panic("unbounded: fresh ring rejected its seed")
	}
	nn := &node[T]{r: nr} //wfq:ignore hotalloc growth path: one node per ring turnover
	if ltail.next.CompareAndSwap(nil, nn) {
		q.tail.CompareAndSwap(ltail, nn)
		q.pool.unmarkInflight(nr)
		q.met.Inc(metrics.RingSeal)
		return m
	}
	// Lost the append race: reclaim the seeds (the ring was never
	// linked, so this handle still owns it exclusively) and park the
	// ring for reuse.
	for j := 0; j < m; j++ {
		nv.Dequeue()
	}
	q.pool.put(nr)
	q.met.Inc(metrics.RingRecycle)
	return 0
}

// Dequeue removes the oldest value; ok is false when the whole queue
// is empty. Like Enqueue it probes the current ring once; on a miss
// (the head ring empty or retired) it is the batch dequeue over a
// batch of one. It hands the probe's pin on to that loop instead of
// releasing it: a pin dropped and retaken there lets a concurrent
// retire find the node unpinned more often, so more drained rings stay
// pooled and the footprint left after a drain rises.
//
//wfq:noalloc
func (h *Handle[T]) Dequeue() (v T, ok bool) {
	lhead := h.q.head.Load()
	lhead.pins.Add(1)
	if !lhead.retired.Load() {
		if v, ok = h.view(&h.head, lhead.r).Dequeue(); ok {
			lhead.pins.Add(-1)
			return v, true
		}
	}
	if h.dequeueFrom(lhead, h.one[:]) == 0 {
		return v, false
	}
	v = h.one[0]
	var zero T
	h.one[0] = zero // release the reference
	return v, true
}

// DequeueBatch fills a prefix of out with the oldest values, draining
// across ring boundaries (a drained head ring is retired and the scan
// continues on its successor) without reordering — ring G is drained
// before any value of ring G+1 is taken, so FIFO survives the batch.
// It returns how many values were written; 0 means the whole queue
// appeared empty. A batch cut short by a ring whose producers are
// still in flight returns the partial prefix instead of spinning.
//
//wfq:noalloc
func (h *Handle[T]) DequeueBatch(out []T) int { return h.dequeueFrom(nil, out) }

// dequeueFrom is the one dequeue loop. lhead, when not nil, is a head
// node the caller has already pinned; the loop releases that pin like
// its own. Every iteration leaves its node unpinned (advance releases
// the pin too), so the next one pins the new head.
//
//wfq:noalloc
func (h *Handle[T]) dequeueFrom(lhead *node[T], out []T) int {
	q := h.q
	filled := 0
	for ; filled < len(out); lhead = nil {
		if lhead == nil {
			lhead = q.head.Load()
			lhead.pins.Add(1)
		}
		if lhead.retired.Load() {
			lhead.pins.Add(-1)
			continue
		}
		view := h.view(&h.head, lhead.r)
		if n := view.DequeueBatch(out[filled:]); n > 0 {
			filled += n
			lhead.pins.Add(-1)
			continue
		}
		next := lhead.next.Load()
		if next == nil {
			lhead.pins.Add(-1)
			return filled // no successor: nothing more buffered
		}
		if !lhead.drained() {
			lhead.pins.Add(-1)
			if filled > 0 {
				return filled // partial batch beats spinning on in-flight enqueues
			}
			continue
		}
		// One more look after the drain barrier, then advance.
		if n := view.DequeueBatch(out[filled:]); n > 0 {
			filled += n
			lhead.pins.Add(-1)
			continue
		}
		q.advance(lhead, next)
	}
	return filled
}

// advance swings head from lhead, a drained node the caller holds
// pinned, to next, releasing the caller's pin. The ring is marked in
// flight BEFORE the head CAS: from the moment the CAS unlinks it until
// retire hands it to the pool (or abandons it), the node is on no
// reachable structure, and without the mark a concurrent view prune in
// that window would drop a view of a ring that can still recur —
// costing a second (census-consuming) registration on reuse.
//
//wfq:noalloc
func (q *Queue[T]) advance(lhead, next *node[T]) {
	q.pool.markInflight(lhead.r)
	advanced := q.head.CompareAndSwap(lhead, next)
	lhead.pins.Add(-1)
	if advanced {
		q.retire(lhead)
	} else {
		q.pool.unmarkInflight(lhead.r)
	}
}

// retire runs on the dequeuer that advanced head past n (which marked
// n.r in flight before its CAS): mark the node retired, then recycle
// its ring only if no straggler holds a pin of either kind (see the
// node comment for why this order is the whole proof). Either path
// releases the in-flight mark.
//
//wfq:allocok mutex-guarded turnover bookkeeping
func (q *Queue[T]) retire(n *node[T]) {
	n.retired.Store(true)
	if n.pins.Load() == 0 && n.enqs.Load() == 0 {
		q.pool.put(n.r)
		q.met.Inc(metrics.RingRecycle)
		return
	}
	// Pinned: a straggler may still touch the ring; leave it to the GC.
	q.pool.unmarkInflight(n.r)
}

// ringPool is the bounded drained-ring free-list. It also tracks rings
// that are "in flight" between leaving the pool (or allocation) and
// being linked at the tail, so Handle.view pruning never drops a view
// of a ring that can come back.
type ringPool[T any] struct {
	mu    sync.Mutex
	rings []ringcore.Core[T] // LIFO: the most recently drained ring is the cache-warmest
	// inflight is a reference count per ring: dequeuers racing the
	// same head CAS each take a mark, and only the last release drops
	// the ring from the reachable set.
	inflight map[ringcore.Core[T]]int
	max      int
}

// get removes a parked ring and marks it in flight.
func (p *ringPool[T]) get() (ringcore.Core[T], bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.rings) == 0 {
		return nil, false
	}
	r := p.rings[len(p.rings)-1]
	p.rings = p.rings[:len(p.rings)-1]
	p.markInflightLocked(r)
	return r, true
}

// put parks a drained, unreachable ring for reuse; when the pool is
// full the ring is dropped for the GC. Either way the caller's
// in-flight mark is released.
//
//wfq:allocok mutex-guarded turnover bookkeeping
func (p *ringPool[T]) put(r ringcore.Core[T]) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.unmarkInflightLocked(r)
	if len(p.rings) < p.max {
		p.rings = append(p.rings, r)
	}
}

//wfq:allocok mutex-guarded turnover bookkeeping
func (p *ringPool[T]) markInflight(r ringcore.Core[T]) {
	p.mu.Lock()
	p.markInflightLocked(r)
	p.mu.Unlock()
}

func (p *ringPool[T]) markInflightLocked(r ringcore.Core[T]) {
	if p.inflight == nil {
		p.inflight = map[ringcore.Core[T]]int{}
	}
	p.inflight[r]++
}

//wfq:allocok mutex-guarded turnover bookkeeping
func (p *ringPool[T]) unmarkInflight(r ringcore.Core[T]) {
	p.mu.Lock()
	p.unmarkInflightLocked(r)
	p.mu.Unlock()
}

func (p *ringPool[T]) unmarkInflightLocked(r ringcore.Core[T]) {
	if n := p.inflight[r]; n > 1 {
		p.inflight[r] = n - 1
	} else {
		delete(p.inflight, r)
	}
}

// footprint sums the parked rings' allocation.
func (p *ringPool[T]) footprint() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var f uint64
	for _, r := range p.rings {
		f += r.Footprint()
	}
	return f
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
