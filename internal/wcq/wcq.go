package wcq

import (
	"fmt"
	"sync/atomic"

	"repro/internal/atomicx"
	"repro/internal/metrics"
	"repro/internal/pad"
	"repro/internal/ring"
)

// Defaults match the paper's evaluation (§6) — patience 16/64 makes the
// slow path "relatively infrequent" — and bounded catchup (§3.2).
const (
	DefaultEnqPatience = 16
	DefaultDeqPatience = 64
	DefaultHelpDelay   = 16
	MaxCatchup         = 64
)

// Options tune a Ring. The zero value selects the paper's defaults and
// native F&A. It is also the one tuning struct of every layer built
// over the rings (ringcore.Options is an alias of it), so SCQ rings,
// compositions and the public options read the same fields.
type Options struct {
	// Mode selects native or CAS-emulated F&A (the Fig. 12 PowerPC
	// configuration).
	Mode atomicx.Mode
	// EnqPatience / DeqPatience are the MAX_PATIENCE bounds on the
	// fast path before falling back to the wait-free slow path.
	EnqPatience int
	DeqPatience int
	// HelpDelay is the number of operations between help_threads scans.
	HelpDelay int
	// Metrics, when non-nil, counts slow-path entries, threshold
	// resets and batch degradations. nil (the default) records
	// nothing; each site pays one predictable nil-check branch.
	Metrics *metrics.Sink
}

// Sink returns the metrics sink; nil when recording is disabled or o
// is nil. Compositions use it to pick up the shared sink for their own
// events (steals, ring recycling).
func (o *Options) Sink() *metrics.Sink {
	if o == nil {
		return nil
	}
	return o.Metrics
}

func (o *Options) withDefaults() Options {
	var v Options
	if o != nil {
		v = *o
	}
	if v.EnqPatience <= 0 {
		v.EnqPatience = DefaultEnqPatience
	}
	if v.DeqPatience <= 0 {
		v.DeqPatience = DefaultDeqPatience
	}
	if v.HelpDelay <= 0 {
		v.HelpDelay = DefaultHelpDelay
	}
	return v
}

// Ring is a bounded wait-free MPMC queue of indices in [0, Cap()).
// All memory is allocated at construction; operations never allocate.
//
//wfq:isolate
type Ring struct {
	lay     layout  //wfq:stable
	n       uint64  //wfq:stable usable capacity
	thresh3 int64   //wfq:stable 3n-1
	emulate bool    //wfq:stable
	opts    Options //wfq:stable

	_         pad.Line
	tail      atomicx.Counter // packed {cnt, phase2 tid+1}
	_         pad.Line
	head      atomicx.Counter // packed {cnt, phase2 tid+1}
	_         pad.Line
	threshold atomic.Int64
	_         pad.Line

	entries []atomic.Uint64

	recs      []record
	nextRec   atomic.Int64 //wfq:cold registration only
	maxThread int
}

// NewRing returns an empty wait-free ring holding up to capacity
// indices in [0, capacity), usable by at most maxThreads registered
// handles. capacity must be a power of two >= 2. Head and Tail start
// at cycle 1, and the entries make zeroed are already empty (see the
// package comment), so it writes none.
func NewRing(capacity uint64, maxThreads int, opts *Options) (*Ring, error) {
	lay, err := newLayout(capacity)
	if err != nil {
		return nil, err
	}
	if maxThreads < 1 || maxThreads > MaxThreads {
		return nil, fmt.Errorf("wcq: maxThreads %d out of range [1, %d]", maxThreads, MaxThreads)
	}
	o := opts.withDefaults()
	q := &Ring{
		lay:       lay,
		n:         capacity,
		thresh3:   int64(3*capacity - 1),
		emulate:   o.Mode.Emulated(),
		opts:      o,
		entries:   make([]atomic.Uint64, lay.nSlots),
		recs:      make([]record, maxThreads),
		maxThread: maxThreads,
	}
	q.tail.Init(o.Mode, lay.nSlots) // start at cycle 1
	q.head.Init(o.Mode, lay.nSlots)
	for i := range q.recs {
		q.recs[i].init(i)
	}
	q.threshold.Store(-1)
	return q, nil
}

// NewFullRing returns a Ring pre-filled with indices 0..capacity-1, a
// full free-index pool (the public NewRing with full set). It writes
// that state directly, which is exactly what capacity single-threaded
// fast-path enqueues leave, without their per-index F&A and CAS: index
// i at Tail ticket nSlots+i (cycle 1, safe, enq), every other slot
// empty, Tail just past the last index, Threshold armed. It writes
// index i into the slot of position i, ring.Slot(i, order), with plain
// stores before the ring is published; the other slots stay zero,
// which is empty.
func NewFullRing(capacity uint64, maxThreads int, opts *Options) (*Ring, error) {
	q, err := NewRing(capacity, maxThreads, opts)
	if err != nil {
		return nil, err
	}
	l := &q.lay
	m := l.words
	index0 := m.enqueued(0, m.cycleOf(l.nSlots), l.noteOf(l.nSlots), 0) // Index is the low field: entry i is index0 + i
	e, order := atomicx.Prepublish(q.entries), l.order
	for i := range capacity {
		e[ring.Slot(i, order)] = index0 + i
	}
	q.tail.Store(l.nSlots + capacity)
	q.threshold.Store(q.thresh3)
	return q, nil
}

// NewEmpty returns an empty ring with q's capacity, thread census and
// options.
func (q *Ring) NewEmpty() *Ring {
	r, err := NewRing(q.n, q.maxThread, &q.opts)
	if err != nil {
		panic("wcq: " + err.Error()) // unreachable: q was built from the same parameters
	}
	return r
}

// Register allocates a per-thread record and returns a Handle bound to
// it. It fails once maxThreads handles exist. Records are never
// recycled (the paper's NUM_THRDS census is fixed for the life of the
// queue).
func (q *Ring) Register() (*Handle, error) {
	id := q.nextRec.Add(1) - 1
	if id >= int64(q.maxThread) {
		q.nextRec.Add(-1)
		return nil, fmt.Errorf("wcq: thread census exhausted (maxThreads=%d)", q.maxThread)
	}
	return q.HandleAt(int(id))
}

// HandleAt returns a Handle bound to thread record id, in [0,
// maxThreads), without drawing on Register's census: the caller owns
// the numbering, as the paper's threads own their ids. No two
// goroutines may use one id at once, and HandleAt and Register are
// never mixed on one ring.
func (q *Ring) HandleAt(id int) (*Handle, error) {
	if id < 0 || id >= len(q.recs) {
		return nil, fmt.Errorf("wcq: thread record %d outside the census [0, %d)", id, len(q.recs))
	}
	return &Handle{q: q, r: &q.recs[id], nextCheck: q.opts.HelpDelay, nextTid: id + 1}, nil
}

// Cap returns the usable capacity n.
//
//wfq:noalloc
func (q *Ring) Cap() uint64 { return q.n }

// Footprint returns the statically allocated byte size of the ring
// (entries + thread records + control words), for the Fig. 10a
// memory-usage reproduction.
//
//wfq:noalloc
func (q *Ring) Footprint() uint64 {
	return uint64(len(q.entries))*8 + uint64(len(q.recs))*recSize + 6*pad.CacheLineSize
}

// tailCnt / headCnt read the counter component of the packed globals.
//
//wfq:noalloc
func (q *Ring) tailCnt() uint64 { return globalCnt(q.tail.Load()) }

//wfq:noalloc
func (q *Ring) headCnt() uint64 { return globalCnt(q.head.Load()) }

// consume marks the slot at position h consumed (Fig. 5). When the
// entry was produced by a slow-path enqueuer and is still in its
// two-step window (Enq=0), the dequeuer first finalizes that helping
// request so the producer's helpers stop. selfTid < 0 means "not a
// registered thread" (only used single-threaded).
//
//wfq:noalloc
func (q *Ring) consume(h uint64, e *atomic.Uint64, w uint64, selfTid int) {
	m := q.lay.words
	if w&m.pendingBit() != 0 {
		q.finalizeRequest(h, selfTid)
	}
	atomicx.And(e, m.consumeMask(), q.emulate)
}

// finalizeRequest sets FIN on the localTail of the (unique) enqueue
// request whose current position is h (Fig. 5, finalize_request). The
// caller's own record is skipped: a dequeuing thread cannot be the
// pending enqueuer.
//
//wfq:noalloc
func (q *Ring) finalizeRequest(h uint64, selfTid int) {
	for i := range q.recs {
		if i == selfTid {
			continue
		}
		r := &q.recs[i]
		if lt := r.localTail.Load(); lt&cntMask == h {
			r.localTail.CompareAndSwap(h, h|flagFIN)
			return
		}
	}
}

// enqueueAt runs the per-slot half of try_enq for an already-reserved
// Tail ticket t: the slot examination and the entry CAS, without the
// F&A and without the threshold reset (the callers own both, so the
// batch path can amortize them across a whole reservation).
//
//wfq:noalloc
func (q *Ring) enqueueAt(t, index uint64) bool {
	l := &q.lay
	m := l.words // hoisted: loop-invariant (//wfq:stable)
	tc, tn := m.cycleOf(t), l.noteOf(t)
	e := &q.entries[ring.Slot(t&l.posMask, l.order)]
	for {
		w := e.Load()
		if m.cycBefore(m.cycle(w), tc) && m.free(w) && (m.safe(w) || q.headCnt() <= t) {
			if !e.CompareAndSwap(w, m.enqueued(w, tc, tn, index)) {
				continue
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
		q.opts.Metrics.Inc(metrics.ThresholdReset)
	}
}

// Metrics returns the sink this ring records into (nil when disabled).
//
//wfq:noalloc
func (q *Ring) Metrics() *metrics.Sink { return q.opts.Metrics }

// tryEnqueue is the fast path (try_enq, Fig. 3, with the Enq bit set in
// one step and the Note field preserved). On failure it returns the
// consumed Tail ticket to seed the slow path.
//
//wfq:noalloc
func (q *Ring) tryEnqueue(index uint64) (ticket uint64, ok bool) {
	t := globalCnt(q.tail.Add(1))
	if q.enqueueAt(t, index) {
		q.resetThreshold()
		return 0, true
	}
	return t, false
}

// counterRef aliases the packed global counter type used by slow.go.
type counterRef = atomicx.Counter

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
func (q *Ring) dequeueAt(h uint64, selfTid int) (index uint64, st deqStatus) {
	l := &q.lay
	m, emulate := l.words, q.emulate // hoisted: loop-invariant (//wfq:stable)
	hc := m.cycleOf(h)
	e := &q.entries[ring.Slot(h&l.posMask, l.order)]
	for {
		w := e.Load()
		if m.cycle(w) == hc {
			q.consume(h, e, w, selfTid)
			return m.index(w), deqGot
		}
		var nw uint64
		if m.free(w) {
			nw = m.passed(w, hc, l.noteOf(h))
		} else {
			nw = m.unsafe(w)
		}
		if m.cycBefore(m.cycle(w), hc) {
			if !e.CompareAndSwap(w, nw) {
				continue
			}
		}
		t := q.tailCnt()
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

// tryDequeue is the fast path (try_deq, Fig. 3 adapted per Fig. 5:
// consume finalizes Enq=0 producers; Note and Enq are preserved by the
// transition CASes).
//
//wfq:noalloc
func (q *Ring) tryDequeue(selfTid int) (ticket, index uint64, st deqStatus) {
	h := globalCnt(q.head.Add(1))
	index, st = q.dequeueAt(h, selfTid)
	return h, index, st
}

// catchup advances the Tail counter to head when dequeuers overran all
// enqueuers, preserving the packed phase2 component. Bounded per §3.2.
//
//wfq:noalloc
func (q *Ring) catchup(tail, head uint64) {
	for i := 0; i < MaxCatchup; i++ {
		tw := q.tail.Load()
		cnt := globalCnt(tw)
		if cnt != tail {
			tail = cnt
			head = q.headCnt()
			if tail >= head {
				return
			}
		}
		if q.tail.CompareAndSwap(tw, packGlobal(head, globalTidp(tw))) {
			return
		}
	}
}

// Drained reports whether the head counter has caught the tail
// counter (every enqueue ticket examined).
//
//wfq:noalloc
func (q *Ring) Drained() bool { return q.headCnt() >= q.tailCnt() }

// Enqueue inserts index. It is wait-free: after EnqPatience fast-path
// attempts it switches to the helped slow path, which completes in a
// bounded number of steps. Like the paper's Enqueue_wCQ it assumes at
// most Cap() live indices (aq/fq usage) and so never reports "full".
//
//wfq:noalloc
func (h *Handle) Enqueue(index uint64) {
	q, r := h.q, h.r
	h.helpThreads()
	var ticket uint64
	patience := q.opts.EnqPatience // hoisted: one field load per op, not per attempt
	for i := 0; i < patience; i++ {
		t, ok := q.tryEnqueue(index)
		if ok {
			return
		}
		ticket = t
	}
	// Slow path: publish a help request and run it ourselves.
	q.opts.Metrics.Inc(metrics.EnqSlowPath)
	seq := r.seq1.Load()
	r.localTail.Store(ticket)
	r.initTail.Store(ticket)
	r.index.Store(index)
	r.enqueue.Store(true)
	r.seq2.Store(seq)
	r.pending.Store(true)
	q.enqueueSlow(ticket, index, r, seq, r)
	r.pending.Store(false)
	r.seq1.Store(seq + 1)
}

// Dequeue removes and returns the oldest index; ok is false when the
// queue is empty. Wait-free by the same fast-path/slow-path structure.
//
//wfq:noalloc
func (h *Handle) Dequeue() (index uint64, ok bool) {
	q, r := h.q, h.r
	if q.threshold.Load() < 0 {
		return 0, false // empty
	}
	h.helpThreads()
	var ticket uint64
	patience := q.opts.DeqPatience // hoisted: one field load per op, not per attempt
	for i := 0; i < patience; i++ {
		t, idx, st := q.tryDequeue(r.tid)
		switch st {
		case deqGot:
			return idx, true
		case deqEmpty:
			return 0, false
		}
		ticket = t
	}
	// Slow path.
	q.opts.Metrics.Inc(metrics.DeqSlowPath)
	seq := r.seq1.Load()
	r.localHead.Store(ticket)
	r.initHead.Store(ticket)
	r.enqueue.Store(false)
	r.seq2.Store(seq)
	r.pending.Store(true)
	q.dequeueSlow(ticket, r, seq, r)
	r.pending.Store(false)
	r.seq1.Store(seq + 1)
	// Gather the slow-path result (Fig. 5, lines 48-54).
	l := &q.lay
	m := l.words
	hh := r.localHead.Load() & cntMask
	e := &q.entries[ring.Slot(hh&l.posMask, l.order)]
	w := e.Load()
	if m.cycle(w) == m.cycleOf(hh) && !m.isBottom(w) {
		q.consume(hh, e, w, r.tid)
		return m.index(w), true
	}
	return 0, false
}

// EnqueueBatch inserts the indices in order with a single Tail F&A
// reserving len(indices) consecutive tickets, then fills each reserved
// slot with the ordinary per-entry protocol (one uncontended CAS per
// slot on the fast path). A reserved ticket whose slot is unusable is
// abandoned exactly like a failed try_enq ticket, and the remaining
// elements degrade to the scalar Enqueue in order (fast path with
// patience, then the helped slow path), so the whole batch stays
// wait-free: at most k slot attempts plus k wait-free scalar
// enqueues. Like Enqueue it never reports full (aq/fq discipline).
//
// The threshold is reset once per contiguous fast-path run instead of
// once per element: the reserved tickets are consecutive, so once Head
// reaches the run's first element it consumes the rest with successful
// (non-decrementing) attempts — the first element's reset covers the
// whole run, and the degrade path resets per element as usual.
//
//wfq:noalloc
func (h *Handle) EnqueueBatch(indices []uint64) {
	k := len(indices)
	if k == 0 {
		return
	}
	if k == 1 {
		h.Enqueue(indices[0])
		return
	}
	q := h.q
	t0 := globalCnt(q.tail.Add(uint64(k)))
	thReset := false
	met := q.opts.Metrics // hoisted: loop-invariant (//wfq:stable)
	for j, idx := range indices {
		h.helpThreads() // keep the helping cadence of k scalar ops
		if !q.enqueueAt(t0+uint64(j), idx) {
			met.Inc(metrics.BatchDegrade)
			for _, v := range indices[j:] {
				h.Enqueue(v)
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
// ticket lands in a transient retry state the batch falls back to one
// scalar Dequeue rather than reporting a spurious 0. The batch stays
// wait-free by construction: exactly k bounded per-ticket protocols
// plus at most one wait-free scalar Dequeue.
//
//wfq:noalloc
func (h *Handle) DequeueBatch(out []uint64) int {
	q, r := h.q, h.r
	if len(out) == 0 || q.threshold.Load() < 0 {
		return 0
	}
	k := uint64(len(out))
	// Clamp the reservation to the visible backlog so an almost-empty
	// ring does not burn a run of empty-checking tickets. The snapshot
	// is racy; over-reservation is handled by the per-ticket protocol.
	t, hd := q.tailCnt(), q.headCnt()
	if t <= hd {
		k = 1 // nothing visible: probe once
	} else if backlog := t - hd; backlog < k {
		k = backlog
	}
	if k == 1 { // the scalar path, with its full empty accounting
		idx, ok := h.Dequeue()
		if !ok {
			return 0
		}
		out[0] = idx
		return 1
	}
	h0 := globalCnt(q.head.Add(k))
	filled := 0
	sawRetry := false
	for j := uint64(0); j < k; j++ {
		h.helpThreads()
		switch idx, st := q.dequeueAt(h0+j, r.tid); st {
		case deqGot:
			out[filled] = idx
			filled++
		case deqRetry:
			sawRetry = true
		}
	}
	if filled == 0 && sawRetry {
		q.opts.Metrics.Inc(metrics.BatchDegrade)
		// Every reserved ticket hit a transient state (e.g. the run of
		// tickets abandoned by a partially-degraded EnqueueBatch) while
		// values may sit at later tickets. The scalar Dequeue (patience
		// fast path, then the helped slow path) either consumes a value
		// or proves emptiness, so 0 stays "empty" — and it is wait-free,
		// so the batch bound only grows by one scalar operation.
		if idx, ok := h.Dequeue(); ok {
			out[0] = idx
			return 1
		}
	}
	return filled
}

// helpThreads periodically scans for pending help requests (Fig. 6).
// Its cadence lives in the Handle, as the paper's next_check and
// next_tid are thread-local: the countdown is written on every
// operation, and no other thread reads it.
//
//wfq:noalloc
func (h *Handle) helpThreads() {
	h.nextCheck--
	if h.nextCheck != 0 {
		return
	}
	q, r := h.q, h.r
	h.nextCheck = q.opts.HelpDelay
	if h.nextTid >= len(q.recs) {
		h.nextTid = 0
	}
	thr := &q.recs[h.nextTid]
	h.nextTid = (h.nextTid + 1) % len(q.recs)
	if thr == r || !thr.pending.Load() {
		return
	}
	if thr.enqueue.Load() {
		q.helpEnqueue(thr, r)
	} else {
		q.helpDequeue(thr, r)
	}
}

// helpEnqueue snapshots thr's request and joins its slow path (Fig. 6).
//
//wfq:noalloc
func (q *Ring) helpEnqueue(thr *record, self *record) {
	seq := thr.seq2.Load()
	enq := thr.enqueue.Load()
	idx := thr.index.Load()
	tail := thr.initTail.Load()
	if enq && thr.seq1.Load() == seq {
		q.enqueueSlow(tail, idx, thr, seq, self)
	}
}

//wfq:noalloc
func (q *Ring) helpDequeue(thr *record, self *record) {
	seq := thr.seq2.Load()
	enq := thr.enqueue.Load()
	head := thr.initHead.Load()
	if !enq && thr.seq1.Load() == seq {
		q.dequeueSlow(head, thr, seq, self)
	}
}
