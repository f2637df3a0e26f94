// Package scq implements SCQ, the Scalable Circular Queue of Nikolaev
// (DISC '19), exactly as restated in Figure 3 of the wCQ paper
// (SPAA '22). SCQ is the lock-free substrate that wCQ extends with a
// wait-free slow path; it is also one of the evaluation baselines.
//
// A Ring is a bounded MPMC FIFO of small integer indices in [0, n).
// Following the paper it allocates 2n slots for n usable entries and
// maintains a Threshold of 3n-1 so that dequeuers detect emptiness in
// a lock-free way without ever closing the ring (the LCRQ approach) or
// needing helping (the YMC approach).
//
// Each 64-bit slot packs {Cycle, IsSafe, Index}:
//
//	bits [0, o)    Index      (o = log2(2n); ⊥c = 0, ⊥ = 1, index i = i+2)
//	bit  o         Unsafe     (IsSafe inverted)
//	bits (o, 63]   Cycle      (monotonic, 63-o bits — never wraps in practice)
//
// With IsSafe inverted, the zero word is an empty slot at cycle 0:
// NewRing writes no entry. The paper's fresh slot holds ⊥; SCQ never
// tells ⊥c from ⊥.
//
// internal/ringcore layers arbitrary values on top of two Rings via
// the paper's Figure 2 indirection: fq holds free indices, aq holds
// allocated ones, and a plain data array carries the payloads.
package scq

import (
	"fmt"
	"sync/atomic"

	"repro/internal/atomicx"
	"repro/internal/metrics"
	"repro/internal/pad"
	"repro/internal/ring"
)

// MaxCatchup bounds the catchup loop. In SCQ catchup is a pure
// performance optimization (the paper bounds it explicitly only in
// wCQ); we bound it here too so both variants share the property.
const MaxCatchup = 64

// Ring is a bounded lock-free MPMC queue of indices in [0, Cap()).
//
//wfq:isolate
type Ring struct {
	order   uint         //wfq:stable log2(nSlots)
	nSlots  uint64       //wfq:stable 2n
	n       uint64       //wfq:stable usable capacity
	posMask uint64       //wfq:stable nSlots-1
	idxMask uint64       //wfq:stable nSlots-1 (index field width == position width)
	thresh3 int64        //wfq:stable 3n-1
	mode    atomicx.Mode //wfq:stable
	emulate bool         //wfq:stable emulated-F&A modes (PowerPC-style CAS loops)

	met *metrics.Sink //wfq:stable nil = disabled; set via SetMetrics before sharing

	_         pad.Line
	tail      atomicx.Counter
	_         pad.Line
	head      atomicx.Counter
	_         pad.Line
	threshold atomic.Int64
	_         pad.Line

	entries []atomic.Uint64
}

// NewRing returns an empty Ring holding up to capacity indices, each in
// [0, capacity). capacity must be a power of two >= 2.
func NewRing(capacity uint64, mode atomicx.Mode) (*Ring, error) {
	if capacity < 2 || !ring.IsPow2(capacity) {
		return nil, fmt.Errorf("scq: capacity %d must be a power of two >= 2", capacity)
	}
	nSlots := 2 * capacity
	q := &Ring{
		order:   ring.Order(nSlots),
		nSlots:  nSlots,
		n:       capacity,
		posMask: nSlots - 1,
		idxMask: nSlots - 1,
		thresh3: int64(3*capacity - 1),
		mode:    mode,
		emulate: mode.Emulated(),
		entries: make([]atomic.Uint64, nSlots),
	}
	q.tail.Init(mode, nSlots) // start at cycle 1 so entries at cycle 0 read "old"
	q.head.Init(mode, nSlots)
	q.threshold.Store(-1) // empty
	return q, nil
}

// NewEmpty returns an empty ring with q's capacity, F&A mode and
// metrics sink.
func (q *Ring) NewEmpty() *Ring {
	r, err := NewRing(q.n, q.mode)
	if err != nil {
		panic("scq: " + err.Error()) // unreachable: q was built from the same parameters
	}
	r.met = q.met
	return r
}

// Cap returns the usable capacity n.
//
//wfq:noalloc
func (q *Ring) Cap() uint64 { return q.n }

// SetMetrics points the ring at a metrics sink (nil disables). Must be
// called before the ring is shared; the field is read-only afterwards.
func (q *Ring) SetMetrics(m *metrics.Sink) { q.met = m }

// Metrics returns the sink this ring records into (nil when disabled).
//
//wfq:noalloc
func (q *Ring) Metrics() *metrics.Sink { return q.met }

// Footprint returns the statically allocated size of the ring in bytes
// (used by the Figure 10a memory-usage reproduction).
//
//wfq:noalloc
func (q *Ring) Footprint() uint64 {
	return uint64(len(q.entries))*8 + 4*pad.CacheLineSize
}

// Index codes: ⊥c (consumed) is 0, ⊥ (empty this cycle) is bottom, and
// index i is i+idxBase.
const bottom, idxBase = 1, 2

// pack assembles an entry word from cycle, Unsafe bit and Index code
// (the codes above: the zero word is {cycle 0, safe, ⊥c}).
//
//wfq:noalloc
func (q *Ring) pack(cycle, unsafe, code uint64) uint64 {
	return cycle<<(q.order+1) | unsafe<<q.order | code
}

//wfq:noalloc
func (q *Ring) unpack(w uint64) (cycle, unsafe, code uint64) {
	return w >> (q.order + 1), w >> q.order & 1, w & q.idxMask
}

// cycleOf maps a Head/Tail counter value to its ring cycle.
//
//wfq:noalloc
func (q *Ring) cycleOf(c uint64) uint64 { return c >> q.order }

// Drained reports whether the head counter has caught the tail
// counter, i.e. every issued enqueue ticket has been examined by a
// dequeuer.
//
//wfq:noalloc
func (q *Ring) Drained() bool { return q.head.Load() >= q.tail.Load() }

// enqueueAt runs the per-slot half of try_enq for an already-reserved
// Tail ticket t: the slot examination and the entry CAS, without the
// F&A and without the threshold reset (the callers own both, so the
// batch path can amortize them across a whole reservation).
//
//wfq:noalloc
func (q *Ring) enqueueAt(t, index uint64) bool {
	tCycle := q.cycleOf(t)
	e := &q.entries[ring.Slot(t&q.posMask, q.order)]
	for {
		w := e.Load()
		eCycle, unsafe, code := q.unpack(w)
		if eCycle < tCycle &&
			code <= bottom &&
			(unsafe == 0 || q.head.Load() <= t) {
			if !e.CompareAndSwap(w, q.pack(tCycle, 0, index+idxBase)) {
				continue // the entry changed; re-examine it
			}
			return true
		}
		return false
	}
}

// resetThreshold performs the post-enqueue threshold reset (the load
// avoids a shared write when the threshold is already pegged, which
// also keeps the reset counter to genuine re-arms).
//
//wfq:noalloc
func (q *Ring) resetThreshold() {
	if q.threshold.Load() != q.thresh3 {
		q.threshold.Store(q.thresh3)
		q.met.Inc(metrics.ThresholdReset)
	}
}

// tryEnqueue performs one fast-path enqueue attempt (try_enq in
// Fig. 3) and reports whether it placed index.
//
//wfq:noalloc
func (q *Ring) tryEnqueue(index uint64) bool {
	if q.enqueueAt(q.tail.Add(1), index) {
		q.resetThreshold()
		return true
	}
	return false
}

// Enqueue inserts index, retrying the fast path until it succeeds.
// Like the paper's Enqueue_SCQ it never reports "full": the intended
// usage (aq/fq index rings) guarantees at most n live indices. SCQ has
// no helped slow path, so "slow" here means leaving the one-attempt
// fast path and entering the retry regime — the lock-free analogue of
// wCQ's patience exhaustion, counted once per operation.
//
//wfq:noalloc
func (q *Ring) Enqueue(index uint64) {
	if q.tryEnqueue(index) {
		return
	}
	q.met.Inc(metrics.EnqSlowPath)
	for !q.tryEnqueue(index) {
	}
}

// Deq status codes shared with the wait-free layer.
type deqStatus uint8

const (
	deqRetry deqStatus = iota
	deqGot
	deqEmpty
)

// dequeueAt runs the per-slot half of try_deq for an already-reserved
// Head ticket h: the consume attempt, the slot transition that keeps a
// passed position safe from late enqueuers, and the emptiness
// accounting. Every reserved Head ticket MUST pass through here —
// abandoning one without the slot transition would let a late
// enqueuer of the same cycle publish a value at a position Head has
// already passed, losing it.
//
//wfq:noalloc
func (q *Ring) dequeueAt(h uint64) (index uint64, st deqStatus) {
	hCycle := q.cycleOf(h)
	idxMask, emulate := q.idxMask, q.emulate // hoisted: loop-invariant (//wfq:stable)
	e := &q.entries[ring.Slot(h&q.posMask, q.order)]
	for {
		w := e.Load()
		eCycle, unsafe, code := q.unpack(w)
		if eCycle == hCycle {
			// consume: set the index bits to ⊥c, keep cycle/safe.
			atomicx.And(e, ^idxMask, emulate)
			return code - idxBase, deqGot
		}
		var nw uint64
		if code <= bottom {
			nw = q.pack(hCycle, unsafe, bottom)
		} else {
			nw = q.pack(eCycle, 1, code) // mark unsafe, keep the value
		}
		if eCycle < hCycle {
			if !e.CompareAndSwap(w, nw) {
				continue
			}
		}
		// Unable to consume at this position: check for emptiness.
		t := q.tail.Load()
		if t <= h+1 {
			q.catchup(t, h+1)
			atomicx.FetchAdd(&q.threshold, -1, emulate)
			return 0, deqEmpty
		}
		if atomicx.FetchAdd(&q.threshold, -1, emulate) <= 0 {
			return 0, deqEmpty
		}
		return 0, deqRetry
	}
}

// tryDequeue performs one fast-path dequeue attempt (try_deq in
// Fig. 3).
//
//wfq:noalloc
func (q *Ring) tryDequeue() (ticket, index uint64, st deqStatus) {
	h := q.head.Add(1)
	index, st = q.dequeueAt(h)
	return h, index, st
}

// Dequeue removes and returns the oldest index. ok is false when the
// queue is empty. The retry regime (first deqRetry status) is counted
// as the dequeue-side slow-path entry, once per operation.
//
//wfq:noalloc
func (q *Ring) Dequeue() (index uint64, ok bool) {
	if q.threshold.Load() < 0 {
		return 0, false
	}
	met := q.met // hoisted: loop-invariant (//wfq:stable)
	for slow := false; ; {
		_, idx, st := q.tryDequeue()
		switch st {
		case deqGot:
			return idx, true
		case deqEmpty:
			return 0, false
		}
		if !slow {
			slow = true
			met.Inc(metrics.DeqSlowPath)
		}
	}
}

// EnqueueBatch inserts the indices in order with a single Tail F&A
// reserving len(indices) consecutive tickets, then fills each reserved
// slot with the ordinary per-entry protocol (one uncontended CAS per
// slot on the fast path). A reserved ticket whose slot is unusable is
// abandoned exactly like a failed try_enq ticket; because the elements
// after it would otherwise overtake it, the remaining elements degrade
// to the scalar Enqueue loop in order, preserving per-caller FIFO.
// Like Enqueue it never reports full (aq/fq index-ring discipline).
//
// The threshold is reset once per contiguous fast-path run instead of
// once per element: the reserved tickets are consecutive, so once Head
// reaches the run's first element it consumes the rest with successful
// (non-decrementing) attempts — the first element's reset covers the
// whole run, and the scalar degrade path resets per element as usual.
//
//wfq:noalloc
func (q *Ring) EnqueueBatch(indices []uint64) {
	k := len(indices)
	if k == 0 {
		return
	}
	if k == 1 {
		q.Enqueue(indices[0])
		return
	}
	t0 := q.tail.Add(uint64(k))
	thReset := false
	met := q.met // hoisted: loop-invariant (//wfq:stable)
	for j, idx := range indices {
		if !q.enqueueAt(t0+uint64(j), idx) {
			// Unusable slot: the remaining reserved tickets are
			// abandoned (safe — identical to failed try_enq tickets)
			// and the rest of the batch takes the scalar path.
			met.Inc(metrics.BatchDegrade)
			for _, v := range indices[j:] {
				q.Enqueue(v)
			}
			return
		}
		if !thReset {
			q.resetThreshold()
			thReset = true
		}
	}
}

// DequeueBatch removes up to len(out) of the oldest indices with a
// single Head F&A reserving a run of tickets sized to the visible
// backlog, then runs the ordinary per-entry protocol on every reserved
// ticket (each one must be processed — see dequeueAt). It returns how
// many indices were written; 0 means the ring appeared empty. That
// contract is load-bearing (Chan parks on it), so when every reserved
// ticket lands in a transient retry state the batch falls back to the
// scalar Dequeue rather than reporting a spurious 0.
//
//wfq:noalloc
func (q *Ring) DequeueBatch(out []uint64) int {
	if len(out) == 0 || q.threshold.Load() < 0 {
		return 0
	}
	k := uint64(len(out))
	// Clamp the reservation to the visible backlog so an almost-empty
	// ring does not burn a run of empty-checking tickets. The snapshot
	// is racy; over-reservation is handled by the per-ticket protocol.
	t, h := q.tail.Load(), q.head.Load()
	if t <= h {
		k = 1 // nothing visible: probe once
	} else if backlog := t - h; backlog < k {
		k = backlog
	}
	if k == 1 { // the scalar path, with its full empty accounting
		idx, ok := q.Dequeue()
		if !ok {
			return 0
		}
		out[0] = idx
		return 1
	}
	h0 := q.head.Add(k)
	filled := 0
	sawRetry := false
	for j := uint64(0); j < k; j++ {
		switch idx, st := q.dequeueAt(h0 + j); st {
		case deqGot:
			out[filled] = idx
			filled++
		case deqRetry:
			sawRetry = true
		}
	}
	if filled == 0 && sawRetry {
		q.met.Inc(metrics.BatchDegrade)
		// Every reserved ticket hit a transient state (e.g. the run of
		// tickets abandoned by a partially-degraded EnqueueBatch) while
		// values may sit at later tickets. The scalar path retries until
		// it consumes a value or proves emptiness, so 0 stays "empty".
		if idx, ok := q.Dequeue(); ok {
			out[0] = idx
			return 1
		}
	}
	return filled
}

// catchup advances Tail to Head when dequeuers have overrun all
// enqueuers (so that subsequent empty checks exit quickly). Bounded to
// MaxCatchup iterations; it is purely a performance aid.
//
//wfq:noalloc
func (q *Ring) catchup(tail, head uint64) {
	for i := 0; i < MaxCatchup; i++ {
		if q.tail.CompareAndSwap(tail, head) {
			return
		}
		head = q.head.Load()
		tail = q.tail.Load()
		if tail >= head {
			return
		}
	}
}
