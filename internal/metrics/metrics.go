// Package metrics is the always-on observability substrate for the
// queue stack: per-CPU-sharded event counters and log-bucketed latency
// histograms cheap enough to leave enabled in the hot paths.
//
// The design mirrors internal/atomicx.Counter's construction-time mode
// flag, taken one step further: "disabled" is simply a nil *Sink. Every
// recording method has a nil-receiver guard, so code threads a *Sink
// through unconditionally and pays exactly one predictable branch when
// metrics are off — no interface dispatch, no function-pointer
// indirection, no per-call-site flag.
//
// When a Sink is enabled, counter increments land on one of several
// cache-line-padded stripes selected from the calling goroutine's stack
// address, so concurrent writers on different CPUs do not contend on a
// single cache line. Reads (Snapshot) sum the stripes; they are
// intended for scrape-rate consumers (the wcqstressd daemon, test
// assertions), not for the data path.
//
// All recording methods are allocation-free and carry //wfq:noalloc so
// the hotalloc analyzer proves they may be called from the queues'
// //wfq:noalloc hot paths without voiding the zero-alloc guarantee.
package metrics

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"repro/internal/pad"
)

// Event enumerates the load-bearing occurrences instrumented across the
// queue stack. Counters are monotone; rates are derived by the scraper.
type Event uint8

// The event taxonomy. Each constant names one rare-by-construction
// branch in the stack; the fast paths (patience-loop hits, batch
// reservations that land in one F&A) are deliberately not counted —
// their throughput is observable from the daemon's own op counters.
const (
	// EnqSlowPath counts enqueue attempts that left the fast path: a
	// wCQ handle publishing a slow-path request after exhausting its
	// patience, or an SCQ enqueue re-spinning after its first
	// fast-path attempt failed.
	EnqSlowPath Event = iota
	// DeqSlowPath is the dequeue-side analogue of EnqSlowPath.
	DeqSlowPath
	// ThresholdReset counts stores that re-arm the 3n-1 emptiness
	// threshold (paper §3.2). Steady-state operation keeps the
	// threshold saturated, so resets signal empty/full transitions.
	ThresholdReset
	// BatchDegrade counts batch operations that fell back to the
	// scalar path: an EnqueueBatch finishing element-by-element after
	// losing its reservation, or a DequeueBatch that retreated to a
	// scalar Dequeue after contention emptied its window.
	BatchDegrade
	// StealAttempt counts foreign-shard steal scans by a sharded
	// dequeue that found its home shard empty (scalar) or short
	// (batch).
	StealAttempt
	// StealHit counts StealAttempts that yielded at least one value;
	// hit/attempt is the steal success rate.
	StealHit
	// RingSeal counts unbounded-queue tail nodes sealed because their
	// ring filled, forcing growth onto a fresh ring.
	RingSeal
	// RingAlloc counts the rings unbounded-queue turnovers built: each
	// is linked (and counted by RingSeal too) or, when another enqueuer
	// linked its ring first, dropped.
	RingAlloc
	// Park counts waiters registered on a park.Point (i.e. goroutines
	// that committed to blocking after the lock-free re-check).
	Park
	// Wake counts wake tokens delivered to parked waiters by Wake or
	// WakeAll.
	Wake
	// SpuriousWake counts wake tokens that raced with an aborting
	// waiter and were drained (and forwarded) by Abort — wakes that
	// did not translate into a parked goroutine resuming with work.
	SpuriousWake
	// CloseDrain counts receive operations that observed the
	// closed-and-drained state of a Chan and returned ErrClosed.
	CloseDrain
	// HandoffSend counts sends that bypassed the ring entirely: the
	// queue was verifiably empty with a receiver parked on notEmpty,
	// so the value was published straight into the claimed waiter's
	// transfer cell.
	HandoffSend
	// HandoffMiss counts sends that reached the claim and found no
	// claimable receiver (each had disarmed or been woken), falling
	// back to the ring path. A send that skips handoff because buffered
	// values exist is NOT a miss — FIFO forbids the handoff there by
	// design, so no rendezvous was attempted. HandoffSend /
	// (HandoffSend+HandoffMiss) is the handoff hit rate: the fraction
	// of attempted rendezvous that actually moved a value past the
	// ring.
	HandoffMiss

	// NumEvents is the number of event kinds; valid events are
	// 0 <= e < NumEvents.
	NumEvents
)

// eventNames are the stable wire names used by String and the daemon's
// Prometheus/expvar export; keep them lower_snake so they can be pasted
// into label values verbatim.
var eventNames = [NumEvents]string{
	"enq_slow",
	"deq_slow",
	"threshold_reset",
	"batch_degrade",
	"steal_attempt",
	"steal_hit",
	"ring_seal",
	"ring_alloc",
	"park",
	"wake",
	"spurious_wake",
	"close_drain",
	"handoff_send",
	"handoff_miss",
}

// String returns the stable lower_snake wire name of the event.
func (e Event) String() string {
	if e < NumEvents {
		return eventNames[e]
	}
	return "unknown"
}

// stripePad rounds the counter block up to a whole number of cache
// lines so adjacent stripes in the slice never share a line.
const stripePad = (pad.CacheLineSize - (int(NumEvents)*8)%pad.CacheLineSize) % pad.CacheLineSize

// stripe is one cache-line-isolated block of event counters. Each
// recording goroutine hashes to a stripe; Snapshot sums across them.
//
//wfq:padded
type stripe struct {
	counts [NumEvents]atomic.Uint64
	_      [stripePad]byte
}

// maxStripes caps the stripe slice; beyond this, contention on a
// scrape-rate counter is negligible and memory would be wasted.
const maxStripes = 64

// Sink accumulates event counts and the parked-duration histogram for
// one queue instance (or one composition — the same *Sink is threaded
// through every layer, so a sharded-unbounded-Chan stack aggregates
// into a single Sink for free).
//
// A nil *Sink is the disabled mode: every recording method no-ops
// after a single nil check. Construct an enabled Sink with New.
type Sink struct {
	stripes []stripe
	mask    uintptr

	// parked is the distribution of time waiters spent registered on a
	// park.Point before their wake, in nanoseconds.
	parked Histogram
}

// New returns an enabled Sink with one counter stripe per (power-of-two
// rounded) GOMAXPROCS, capped at maxStripes.
func New() *Sink {
	n := nextPow2(runtime.GOMAXPROCS(0))
	if n > maxStripes {
		n = maxStripes
	}
	return &Sink{
		stripes: make([]stripe, n),
		mask:    uintptr(n - 1),
	}
}

// nextPow2 rounds n up to the next power of two (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Enabled reports whether the sink records anything. It is the single
// predictable branch disabled-mode callers pay.
//
//wfq:noalloc
func (s *Sink) Enabled() bool { return s != nil }

// stripeFor picks the calling goroutine's counter stripe. Goroutine
// stacks start at 8 KiB and grow in powers of two, so bits 13+ of a
// stack address spread concurrent goroutines across stripes; the value
// is stable for the life of a call frame, which is all the precision a
// statistical counter needs. The address is consumed as a uintptr
// immediately, so the marker byte never escapes.
//
//wfq:noalloc
func (s *Sink) stripeFor() *stripe {
	var marker byte
	i := (uintptr(unsafe.Pointer(&marker)) >> 13) & s.mask
	return &s.stripes[i]
}

// Inc adds one to the event's counter. No-op on a nil Sink.
//
//wfq:noalloc
func (s *Sink) Inc(e Event) {
	if s == nil {
		return
	}
	s.stripeFor().counts[e].Add(1)
}

// Add adds n to the event's counter. No-op on a nil Sink.
//
//wfq:noalloc
func (s *Sink) Add(e Event, n uint64) {
	if s == nil {
		return
	}
	s.stripeFor().counts[e].Add(n)
}

// ObserveParked records one parked duration (nanoseconds) into the
// sink's parked-time histogram. No-op on a nil Sink.
//
//wfq:noalloc
func (s *Sink) ObserveParked(ns uint64) {
	if s == nil {
		return
	}
	s.parked.Record(ns)
}

// Count returns the event's total across all stripes. Nil Sinks report
// zero. It is a read-side helper; the data path never calls it.
func (s *Sink) Count(e Event) uint64 {
	if s == nil {
		return 0
	}
	var t uint64
	for i := range s.stripes {
		t += s.stripes[i].counts[e].Load()
	}
	return t
}

// Snapshot is a point-in-time copy of a Sink's counters and parked-time
// histogram. Snapshots are plain values: mergeable, comparable field by
// field, safe to retain.
type Snapshot struct {
	// Counts holds one total per Event, indexed by the Event value.
	Counts [NumEvents]uint64
	// Parked is the blocking-wait duration distribution in
	// nanoseconds (see Sink.ObserveParked).
	Parked HistogramSnapshot
	// Waiters is the live parked population at snapshot time. The
	// Sink does not track it — Sink.Snapshot leaves it zero — because
	// it is a gauge over park.Point state, not a counter: the blocking
	// facades (Chan.Stats) fill it from their park points.
	Waiters int
}

// Snapshot sums the stripes and captures the parked histogram. A nil
// Sink yields the zero Snapshot. The result is not an atomic cut
// across counters — fine for scraping, meaningless for invariants.
func (s *Sink) Snapshot() Snapshot {
	var out Snapshot
	if s == nil {
		return out
	}
	for i := range s.stripes {
		for e := range out.Counts {
			out.Counts[e] += s.stripes[i].counts[e].Load()
		}
	}
	out.Parked = s.parked.Snapshot()
	return out
}

// Handoffs returns the total number of direct handoffs in the
// snapshot: sends that bypassed the ring into a parked receiver's
// transfer cell.
func (s *Snapshot) Handoffs() uint64 {
	return s.Counts[HandoffSend]
}

// HandoffRate returns the fraction of send-side handoff attempts that
// succeeded, in [0, 1]. Zero when no attempt was recorded.
func (s *Snapshot) HandoffRate() float64 {
	hits := s.Handoffs()
	total := hits + s.Counts[HandoffMiss]
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// EachCount calls f once per event in taxonomy order with the event's
// stable wire name and total — the iteration exporters (expvar,
// Prometheus text) want without depending on the Event constants.
func (s *Snapshot) EachCount(f func(event string, n uint64)) {
	for e, n := range s.Counts {
		f(Event(e).String(), n)
	}
}

// Merge accumulates o into s (counter totals add, histograms merge).
// Useful when compositions are built from independently-sinked parts.
func (s *Snapshot) Merge(o Snapshot) {
	for e := range s.Counts {
		s.Counts[e] += o.Counts[e]
	}
	s.Parked.Merge(o.Parked)
	s.Waiters += o.Waiters
}
