// Package park provides a futex-style parking lot for goroutines
// waiting on a condition over a nonblocking queue ("not empty", "not
// full"). It is the sleep/wake half of the blocking Chan facade: the
// wait-free rings stay untouched, and blocking callers park here
// instead of spin-polling. A caller whose condition fails registers
// and parks at once.
//
// The park protocol mirrors a futex wait/wake pair and has no lost
// wakeups:
//
//	waiter:  w := p.Prepare()          waker:  make condition true
//	         re-check condition                p.Wake(1)
//	         (satisfied? p.Abort(w))
//	         <-w.Ready(); p.Finish(w)
//
// If the waker's Wake observes no registered waiters (one atomic
// load — the only cost wakers pay when nobody sleeps), the waiter's
// Prepare had not happened yet, so its re-check is ordered after the
// waker's condition write and observes it. Otherwise the waiter is
// registered and Wake delivers a token. Waiters must always re-check
// the condition after waking: wakes can be spurious (forwarded from
// an aborted waiter), never missing.
//
// WakeAll wakes every waiter registered at the moment of the call in
// one FIFO pass under the lock: the entry snapshot bounds the pass, so
// no waiter registered then is missed and new arrivals cannot keep it
// running.
//
// # Direct handoff
//
// A waiter registered with PrepareXfer is additionally *claimable*: it
// carries a pointer to a transfer cell owned by the waiting goroutine,
// and a waker that can satisfy the waiter directly (a sender with a
// value for a parked receiver) may Claim it instead of waking it
// plainly. Claim CAS-transitions the waiter armed→claimed — racing
// exactly one-shot against the owner's Disarm (armed→idle), so a
// registration is either claimed once or withdrawn once, never both —
// then the claimer publishes through the cell and calls Deliver, which
// stores the done state before sending the token. The token's channel
// send/receive is the happens-before edge that makes the cell write
// visible (and race-detector-clean) to the woken owner. An owner that
// stops waiting (context expiry, condition satisfied) goes through
// Disarm/Abort: Abort reports whether a handoff landed first, in which
// case the value in the cell counts as delivered and must be consumed
// — nothing is ever duplicated or dropped. From PrepareXfer onward the
// waiter is claimable through its re-checks and the park alike.
package park

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/metrics"
)

// Transfer-cell claim states. A plain registration (Prepare) stays
// xferIdle; PrepareXfer arms the waiter, Claim CASes armed→claimed
// (exactly one winner against the owner's Disarm, which CASes
// armed→idle), and Deliver stores done after the claimer's cell write
// and before the token.
const (
	xferIdle uint32 = iota
	xferArmed
	xferClaimed
	xferDone
)

// Waiter is one goroutine's registration at a Point. It is created by
// Point.Prepare and must be retired by exactly one of Point.Abort
// (wake not consumed from Ready) or Point.Finish (wake consumed).
type Waiter struct {
	ch     chan struct{}
	next   *Waiter
	prev   *Waiter
	queued bool      // still on the Point's list; guarded by Point.mu
	t0     time.Time // Prepare time, for the parked-duration histogram; zero when metrics are off
	// state is the handoff claim state (xfer*): armed by PrepareXfer,
	// CASed claimed by Point.Claim, stored done by Point.Deliver, CASed
	// back to idle by Disarm. Plain registrations stay idle.
	state atomic.Uint32
	// cell points at the owner's typed transfer cell. It lives in the
	// owner's handle — not here — so the pool-shared Waiter stays
	// untyped and the value write is private to the claim/deliver pair.
	// nil unless armed.
	cell unsafe.Pointer
}

// Ready returns the channel a wake token is delivered on. It becomes
// readable exactly once per registration; select on it against a
// context or timer.
func (w *Waiter) Ready() <-chan struct{} { return w.ch }

// waiterPool recycles Waiters (and their one-slot channels) so a
// steady park/unpark workload does not allocate.
var waiterPool = sync.Pool{New: func() any { return &Waiter{ch: make(chan struct{}, 1)} }}

// Point is one parkable condition. The zero value is ready to use.
// Wakers that find no one sleeping pay a single atomic load.
type Point struct {
	waiters atomic.Int32 // registered-and-not-yet-woken count (fast-path gate)
	met     *metrics.Sink
	mu      sync.Mutex
	head    *Waiter // FIFO: head is woken first
	tail    *Waiter
}

// SetMetrics points the parking lot at a metrics sink (nil disables):
// park/wake/spurious-wake counts and the parked-duration histogram.
// Call it before the Point is shared.
func (p *Point) SetMetrics(m *metrics.Sink) { p.met = m }

// Prepare registers the calling goroutine as a waiter. The caller
// MUST re-check its condition after Prepare returns and Abort if it
// is already satisfied; only then may it block on Ready.
//
//wfq:allocok pool-recycled waiter: allocates only until the pool is primed
func (p *Point) Prepare() *Waiter {
	w := waiterPool.Get().(*Waiter)
	p.enqueueWaiter(w)
	return w
}

// PrepareXfer is Prepare for a claimable waiter: it arms the
// registration with the owner's transfer cell before the waiter
// becomes visible on the list, so a waker may Claim it and publish a
// value straight through the cell. The same re-check-then-Abort
// contract as Prepare applies, with one addition:
// after any wake — and after a failed Disarm — the owner must consult
// Done to learn whether a handoff landed in its cell.
//
//wfq:allocok pool-recycled waiter: allocates only until the pool is primed
func (p *Point) PrepareXfer(cell unsafe.Pointer) *Waiter {
	w := waiterPool.Get().(*Waiter)
	w.cell = cell
	w.state.Store(xferArmed)
	p.enqueueWaiter(w)
	return w
}

// enqueueWaiter links w at the tail (FIFO) and publishes the
// registration. Arming state must be set before this call: once the
// waiter is listed, claimers can reach it.
//
//wfq:allocok allocation-free; sync.Mutex and time calls are outside the checker whitelist
func (p *Point) enqueueWaiter(w *Waiter) {
	w.queued = true
	if p.met.Enabled() {
		p.met.Inc(metrics.Park)
		w.t0 = time.Now()
	}
	p.mu.Lock()
	if p.tail == nil {
		p.head, p.tail = w, w
	} else {
		w.prev = p.tail
		p.tail.next = w
		p.tail = w
	}
	p.waiters.Add(1)
	p.mu.Unlock()
}

// unlink removes w from the list. Caller holds p.mu and w.queued.
func (p *Point) unlink(w *Waiter) {
	if w.prev != nil {
		w.prev.next = w.next
	} else {
		p.head = w.next
	}
	if w.next != nil {
		w.next.prev = w.prev
	} else {
		p.tail = w.prev
	}
	w.next, w.prev = nil, nil
	w.queued = false
	p.waiters.Add(-1)
}

// Wake delivers a token to up to n waiters in FIFO order. When no one
// is registered it is a single atomic load.
//
//wfq:allocok allocation-free; sync.Mutex calls are outside the checker whitelist
func (p *Point) Wake(n int) {
	if n <= 0 || p.waiters.Load() == 0 {
		return
	}
	met := p.met
	p.mu.Lock()
	for ; n > 0 && p.head != nil; n-- {
		w := p.head
		p.unlink(w)
		met.Inc(metrics.Wake)
		if !w.t0.IsZero() {
			met.ObserveParked(uint64(time.Since(w.t0)))
		}
		w.ch <- struct{}{} // one-slot buffer, at most one token per registration: never blocks
	}
	p.mu.Unlock()
}

// WakeAll wakes every waiter registered at the moment of the call
// (used on close and for the sharded not-full broadcast) in one FIFO
// pass.
//
// Invariant: no lost wakeups. The target count is snapshotted at
// entry and waiters are FIFO (new arrivals append at the tail), so
// waking `target` waiters in order covers everyone registered at call
// time; waiters that register afterwards belong to the condition's
// next transition (their own Prepare re-check protocol covers them).
// The snapshot also bounds the pass: continuous new arrivals cannot
// turn WakeAll into a livelock.
//
//wfq:noalloc
func (p *Point) WakeAll() { p.Wake(int(p.waiters.Load())) }

// claimScanCap bounds how many queued waiters one Claim examines
// under the lock. Armed waiters cluster at the head in practice (every
// blocking Recv arms), so the cap almost never bites; it exists
// so a claim racing a run of disarming waiters cannot turn the Point's
// mutex hold into a scan of the whole park list.
const claimScanCap = 8

// Claim removes and returns the oldest claimable (armed) waiter along
// with its transfer cell, or (nil, nil) when none is claimable within
// the scan cap. The armed→claimed CAS races the owner's Disarm, so
// exactly one of them wins each registration. A successful Claim
// obligates the caller to write the value through the cell and
// Deliver it.
//
//wfq:allocok allocation-free; sync.Mutex calls are outside the checker whitelist
func (p *Point) Claim() (*Waiter, unsafe.Pointer) {
	if p.waiters.Load() == 0 {
		return nil, nil
	}
	p.mu.Lock()
	scanned := 0
	for w := p.head; w != nil && scanned < claimScanCap; w = w.next {
		if w.state.CompareAndSwap(xferArmed, xferClaimed) {
			p.unlink(w)
			p.mu.Unlock()
			return w, w.cell
		}
		scanned++
	}
	p.mu.Unlock()
	return nil, nil
}

// Deliver completes a claimed handoff. The caller has already written
// the value through the claimed waiter's cell; Deliver publishes the
// done state before the token, so the woken owner that consumed the
// token observes both (the one-slot channel send/receive is the
// happens-before edge that keeps the unsafe cell write race-free).
//
//wfq:allocok allocation-free; time calls are outside the checker whitelist
func (p *Point) Deliver(w *Waiter) {
	w.state.Store(xferDone)
	p.met.Inc(metrics.Wake)
	if !w.t0.IsZero() {
		p.met.ObserveParked(uint64(time.Since(w.t0)))
	}
	w.ch <- struct{}{} // one-slot buffer, at most one token per registration: never blocks
}

// Disarm withdraws an armed waiter from claimability: true means the
// owner reclaimed exclusive use of its cell (no handoff can land
// anymore, and the owner may touch the queue itself); false means a
// claimer won the CAS first, and the owner MUST consume the token and
// take the handed-off result (see Done). Only valid on a waiter
// registered with PrepareXfer, at most once.
//
//wfq:noalloc
func (w *Waiter) Disarm() bool {
	return w.state.CompareAndSwap(xferArmed, xferIdle)
}

// Done reports whether a handoff completed on this registration: the
// owner's cell holds the delivered value.
//
//wfq:noalloc
func (w *Waiter) Done() bool { return w.state.Load() == xferDone }

// Abort retires a registration without consuming from Ready. If the
// waiter had already been woken, the token is drained and the wake is
// forwarded to the next waiter, so a waker's signal is never lost to
// a caller that stopped waiting (context expiry, condition satisfied
// during the re-check).
//
// The return reports whether a claimed handoff completed on this
// registration first: true means the value in the owner's cell counts
// as delivered and the caller must consume it (returning success, not
// the abort's error) — the one linearization where "stop waiting"
// loses the race to a claimer that already published. Plain (Prepare)
// registrations always return false.
func (p *Point) Abort(w *Waiter) bool {
	p.mu.Lock()
	if w.queued {
		// Still listed, hence not claimed: Claim unlinks under this
		// same lock before releasing, so a queued waiter has no
		// claimer. (It may be armed; recycle resets that.)
		p.unlink(w)
		p.mu.Unlock()
		p.recycle(w)
		return false
	}
	p.mu.Unlock()
	// Already woken or claimed: a token is in flight and arrives on the
	// one-slot buffer, so this receive completes. (A claimer sends its
	// token right after publishing; there is no abandoned-claim state.)
	<-w.ch
	if w.state.Load() == xferDone {
		// A handoff landed between the owner's decision to abort and
		// the claim. The token was this handoff's own — nothing to
		// forward — and the cell value must be consumed by the caller.
		p.recycle(w)
		return true
	}
	// Pass the signal on. For the waker the delivery was wasted — the
	// classic spurious wake — which is what the forwarded Wake(1)
	// compensates for.
	p.met.Inc(metrics.SpuriousWake)
	p.recycle(w)
	p.Wake(1)
	return false
}

// Finish retires a registration whose token was consumed from Ready.
func (p *Point) Finish(w *Waiter) { p.recycle(w) }

// Waiters reports how many goroutines are currently registered
// (woken-but-not-yet-retired waiters do not count). Racy by nature; it
// is the handoff paths' fast-path gate (one atomic load when nobody
// sleeps) as well as a test/introspection hook.
//
//wfq:noalloc
func (p *Point) Waiters() int { return int(p.waiters.Load()) }

func (p *Point) recycle(w *Waiter) {
	w.next, w.prev, w.queued = nil, nil, false
	w.t0 = time.Time{}
	w.cell = nil
	w.state.Store(xferIdle)
	waiterPool.Put(w)
}
