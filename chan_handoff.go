package wfqueue

import (
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/park"
)

// Direct handoff: the rendezvous fast path that skips the ring when a
// waiter is already parked (see ARCHITECTURE.md, "Direct handoff").
//
// Receiver side: a blocking receive that misses registers on notEmpty
// with an armed transfer cell (ChanHandle rcell) and stays claimable
// from that moment — through its registered re-checks and through the
// park (see RecvManyCtx). A sender — blocking or not, scalar or batch —
// that finds the queue verifiably empty —
// the backend's one-sided Empty probe, the linearization point that
// keeps per-producer FIFO intact — claims the oldest armed receiver,
// writes its value straight into the cell, and wakes it. The value
// never touches the ring, and the woken receiver returns without
// dequeuing.
//
// Sender side (takeover): a blocking send on a single-ring bounded
// backend arms its pending value (scell) at park-commit time. A
// receiver that frees a slot claims the oldest armed sender and
// enqueues the pending value on its behalf, so the woken sender
// returns immediately instead of re-running its retry loop. The
// sharded backend is excluded — the receiver's handle would enqueue
// into the wrong home shard, breaking per-handle FIFO — and unbounded
// backends never park senders.
//
// Exactly-once in both directions rests on park's claim protocol: the
// armed→claimed CAS races one-shot against the owner's Disarm, and
// Abort reports a landed handoff so a cancelling owner consumes the
// value instead of dropping it.

// armSend publishes v as this handle's pending takeover value and arms
// the parked registration. Called only at park commit (after the
// registered re-checks), once per registration.
//
//wfq:noalloc
func (h *ChanHandle[T]) armSend(w *park.Waiter, v T) {
	h.scell = v
	w.Arm(unsafe.Pointer(&h.scell))
}

// handoff delivers a prefix of vs straight to parked receivers, one
// value each, and returns its length. Each value goes over only while
// the queue is verifiably empty at the attempt — handing it over while
// older values sit buffered would reorder this producer's stream — and
// a claimable receiver exists. Every receiver served has been woken
// with its value in its cell; the caller owes no notEmpty signal for
// the prefix.
//
//wfq:noalloc
func (h *ChanHandle[T]) handoff(vs []T) int {
	c := h.c
	n := 0
	// A false Empty means buffered values exist: the parked receivers
	// are about to be satisfied from the ring (or are
	// mid-registration); delivering around them would break FIFO. Not
	// a miss — no rendezvous is attempted when FIFO forbids one.
	for n < len(vs) && c.notEmpty.Waiters() != 0 && c.core.Empty() {
		w, cell := c.notEmpty.Claim()
		if w == nil {
			c.met.Inc(metrics.HandoffMiss)
			break
		}
		*(*T)(cell) = vs[n]
		c.notEmpty.Deliver(w)
		c.met.Inc(metrics.HandoffSend)
		n++
	}
	return n
}

// releaseSlots signals capacity after this handle dequeued n values.
// On takeover backends it claims up to n parked senders and enqueues
// each one's pending value on its behalf: the sender wakes already
// satisfied (it signals notEmpty for the value it now knows is
// buffered — see SendManyCtx), skipping its whole retry loop. A slot
// the enqueue cannot win back (racing producers took it) downgrades to
// a plain wake of that sender. Remaining slots wake senders normally.
//
//wfq:noalloc
func (h *ChanHandle[T]) releaseSlots(n int) {
	c := h.c
	if c.takeover {
		for n > 0 && c.notFull.Waiters() != 0 {
			w, cell := c.notFull.Claim()
			if w == nil {
				break
			}
			if h.h.Enqueue(*(*T)(cell)) {
				c.notFull.Deliver(w)
				c.met.Inc(metrics.HandoffRecv)
			} else {
				c.met.Inc(metrics.HandoffMiss)
				c.notFull.DeliverWake(w)
			}
			n--
		}
	}
	if n > 0 {
		c.wakeNotFullN(n)
	}
}
