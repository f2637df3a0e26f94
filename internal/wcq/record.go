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

// record is the per-thread state (Fig. 4, thrdrec_t) that other
// threads read: tid, fixed at construction, and the shared fields that
// communicate help requests. The paper's private next_check and
// next_tid live in the Handle instead (see helpThreads). seq1 starts
// at 1 and seq2 at 0 so that a fresh record never looks like an
// active request (a request is active only while seq1 == seq2 and
// pending is set).
type record struct {
	tid int

	// Shared fields.
	phase2    phase2rec
	seq1      atomic.Uint64
	localTail atomic.Uint64
	initTail  atomic.Uint64
	localHead atomic.Uint64
	enqueue   atomic.Bool
	pending   atomic.Bool
	initHead  atomic.Uint64
	index     atomic.Uint64
	seq2      atomic.Uint64

	_ pad.Line // keep adjacent records off each other's lines
}

// recSize is what Footprint charges per record: its size rounded up
// to whole cache lines (168 B -> 192 B on 64-bit targets).
const recSize = uint64((unsafe.Sizeof(record{}) + pad.CacheLineSize - 1) &^ (pad.CacheLineSize - 1))

func (r *record) init(tid int) {
	r.tid = tid
	r.seq1.Store(1)
	r.seq2.Store(0)
}

// Handle is a registered thread's capability to operate on a Ring.
// Each concurrent goroutine must use its own Handle; a Handle must not
// be used from two goroutines at once (its helping cadence is
// unsynchronized, exactly like the paper's per-thread state).
//
//wfq:isolate
type Handle struct {
	q *Ring
	r *record
	_ pad.Line
	// nextCheck and nextTid are Fig. 6's thread-local next_check and
	// next_tid: operations left until the next helping scan, and the
	// record that scan looks at (our neighbour first). nextCheck is
	// written on every operation, so the pair has a line of its own,
	// away from a neighbouring allocation's.
	nextCheck, nextTid int //wfq:hot
	_                  pad.Line
}

// Ring returns the ring this handle operates on.
func (h *Handle) Ring() *Ring { return h.q }

// Retarget points h at the record with its own id in ring q, which
// must have at least as many records as h's ring: one id in every
// ring, as the paper's unbounded queue gives each thread. h must have
// no operation in flight. Its helping cadence carries over.
//
//wfq:noalloc
func (h *Handle) Retarget(q *Ring) { h.q, h.r = q, &q.recs[h.r.tid] }
