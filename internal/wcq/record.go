package wcq

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/pad"
)

// phase2rec is the second-phase help request (Fig. 4, phase2rec_t).
// A thread publishes it — by packing its thread index into the global
// Head/Tail word — while it tentatively increments that global counter;
// any other thread can then complete the increment on its behalf.
//
// The seq1/seq2 pair frames the record: it is valid only when
// seq1 == seq2 (seq1 is bumped first when a new request is prepared,
// seq2 last).
type phase2rec struct {
	seq1  atomic.Uint64
	local atomic.Pointer[atomic.Uint64] // the request's localTail or localHead
	cnt   atomic.Uint64
	seq2  atomic.Uint64
}

// record is the per-thread state (Fig. 4, thrdrec_t). Private fields
// are touched only by the owning thread; shared fields communicate
// help requests. seq1 starts at 1 and seq2 at 0 so that a fresh record
// never looks like an active request (a request is active only while
// seq1 == seq2 and pending is set).
type record struct {
	// Private fields.
	tid       int
	nextCheck int
	nextTid   int

	// Shared fields.
	phase2    phase2rec
	seq1      atomic.Uint64
	enqueue   atomic.Bool
	pending   atomic.Bool
	localTail atomic.Uint64
	initTail  atomic.Uint64
	localHead atomic.Uint64
	initHead  atomic.Uint64
	index     atomic.Uint64
	seq2      atomic.Uint64

	_ pad.Line // keep adjacent records off each other's lines
}

// recSize is what Footprint charges per record: its size rounded up
// to whole cache lines (184 B -> 192 B on 64-bit targets).
const recSize = uint64((unsafe.Sizeof(record{}) + pad.CacheLineSize - 1) &^ (pad.CacheLineSize - 1))

func (r *record) init(tid, helpDelay int) {
	r.tid = tid
	r.nextCheck = helpDelay
	r.nextTid = (tid + 1) // first helping scan starts at our neighbour
	r.seq1.Store(1)
	r.seq2.Store(0)
}

// Handle is a registered thread's capability to operate on a Ring.
// Each concurrent goroutine must use its own Handle; a Handle must not
// be used from two goroutines at once (its record's private fields are
// unsynchronized, exactly like the paper's per-thread state).
type Handle struct {
	q *Ring
	r *record
}

// Ring returns the ring this handle operates on.
func (h *Handle) Ring() *Ring { return h.q }

// Retarget points h at the record with its own id in ring q, which
// must have at least as many records as h's ring: one id in every
// ring, as the paper's unbounded queue gives each thread. h must have
// no operation in flight.
//
//wfq:noalloc
func (h *Handle) Retarget(q *Ring) { h.q, h.r = q, &q.recs[h.r.tid] }
