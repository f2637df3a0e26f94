package wfqueue

import "repro/internal/metrics"

// Direct handoff: the rendezvous fast path that skips the ring when a
// receiver is already parked (see ARCHITECTURE.md, "Direct handoff").
//
// A blocking receive that misses registers on notEmpty with an armed
// transfer cell (ChanHandle rcell) and stays claimable from that
// moment — through its registered re-checks and through the park (see
// RecvManyCtx). A sender — blocking or not, scalar or batch — that
// finds the queue verifiably empty — the backend's one-sided Empty
// probe, the linearization point that keeps per-producer FIFO intact —
// claims the oldest armed receiver, writes its value straight into the
// cell, and wakes it. The value never touches the ring, and the woken
// receiver returns without dequeuing.
//
// Exactly-once rests on park's claim protocol: the armed→claimed CAS
// races one-shot against the receiver's Disarm, and Abort reports a
// landed handoff so a cancelling receiver consumes the value instead
// of dropping it. Parked senders have no handoff: a receive that frees
// a slot wakes them (wakeNotFullN) and they retry their enqueue.

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
