package wcq

import (
	"sync/atomic"

	"repro/internal/atomicx"
	"repro/internal/ring"
)

// This file implements wCQ's wait-free slow path (Fig. 7): slow_F&A,
// the two-phase helped counter increment; try_enq_slow/try_deq_slow;
// and the enqueue_slow/dequeue_slow drivers.
//
// Terminology: a "cooperative group" is a helpee plus every thread
// currently helping it. All members repeat the same procedure against
// the same shared thread record r; slow_F&A guarantees the group
// advances through global Head/Tail tickets one at a time, and the
// Note field makes any position skipped by one member persistently
// skipped for all.
//
// Stale-helper guard: the paper's Fig. 6 validates seq1 == seq2 only
// once, before entering the slow path. A helper that passes the check
// and then stalls could survive into the helpee's NEXT request, whose
// localTail/localHead it would happily advance — with the PREVIOUS
// request's index in hand. enqueueSlow and dequeueSlow therefore
// re-validate r.seq1 == seq after every slow_F&A step: adopting a
// position of request k+1 means reading a localTail value written
// after seq1 was bumped, so the (sequentially consistent) re-read of
// seq1 cannot still observe seq.

// enqueueSlow drives one enqueue help request to completion. r is the
// helpee's record; self is the EXECUTING thread's record (its phase2
// slot is used for global increments). seq frames the request.
//
//wfq:noalloc
func (q *Ring) enqueueSlow(t, index uint64, r *record, seq uint64, self *record) {
	v := t
	for q.slowFAA(&q.tail, &r.localTail, &v, false, self) {
		if r.seq1.Load() != seq {
			return // stale helper: the request we joined is over
		}
		if q.tryEnqSlow(v, index, r) {
			break
		}
	}
}

// dequeueSlow drives one dequeue help request to completion. Unlike
// the fast path, the Threshold is decremented inside slow_F&A — once
// per global Head increment across the whole cooperative group
// (Lemma 5.6), preserving the 3n-1 bound.
//
//wfq:noalloc
func (q *Ring) dequeueSlow(h uint64, r *record, seq uint64, self *record) {
	v := h
	for q.slowFAA(&q.head, &r.localHead, &v, true, self) {
		if r.seq1.Load() != seq {
			return
		}
		if q.tryDeqSlow(v, r) {
			break
		}
	}
}

// slowFAA substitutes the fast path's F&A on a global {counter, phase2}
// word (Fig. 7, slow_F&A). It returns false — terminating the caller's
// slow path — once FIN is set on the request's local counter, and true
// with *v holding the group's current ticket otherwise.
//
// Phase 1 tentatively advances the request's local counter to the
// global value with the INC flag; the global counter is then
// incremented together with publishing self's phase2 record; phase 2
// clears INC on the local counter and the phase2 publication, either
// by the installer or by any thread that observes the publication
// (loadGlobalHelpPhase2). Paired counters increase monotonically, so
// the packed {cnt, tid} word is ABA-free.
//
//wfq:noalloc
func (q *Ring) slowFAA(global *counterRef, local *atomic.Uint64, v *uint64, useThld bool, self *record) bool {
	ph := &self.phase2
	emulate := q.emulate // hoisted: loop-invariant (//wfq:stable)
	for {
		cnt, ok := q.loadGlobalHelpPhase2(global, local)
		if !ok || !local.CompareAndSwap(*v, cnt|flagINC) {
			lv := local.Load()
			*v = lv
			if lv&flagFIN != 0 {
				return false // the request completed elsewhere
			}
			if lv&flagINC == 0 {
				return true // ticket already assigned by a peer
			}
			cnt = lv & cntMask // help complete the pending increment
		} else {
			*v = cnt | flagINC // phase 1 complete
		}
		// Publish the phase-2 request and try to install the increment.
		s := ph.seq1.Load() + 1
		ph.seq1.Store(s)
		ph.local.Store(local)
		ph.cnt.Store(cnt)
		ph.seq2.Store(s)
		if global.CompareAndSwap(packGlobal(cnt, 0), packGlobal(cnt+1, uint64(self.tid)+1)) {
			// Increment installed: this group owns ticket cnt.
			if useThld {
				atomicx.FetchAdd(&q.threshold, -1, emulate)
			}
			local.CompareAndSwap(cnt|flagINC, cnt)
			global.CompareAndSwap(packGlobal(cnt+1, uint64(self.tid)+1), packGlobal(cnt+1, 0))
			*v = cnt
			return true
		}
	}
}

// loadGlobalHelpPhase2 loads the global word, first completing any
// published phase-2 request (Fig. 7, load_global_help_phase2). ok is
// false when the caller's request has been finalized.
//
//wfq:noalloc
func (q *Ring) loadGlobalHelpPhase2(global *counterRef, mylocal *atomic.Uint64) (cnt uint64, ok bool) {
	for {
		if mylocal.Load()&flagFIN != 0 {
			return 0, false // outer loop exits; the helpee is served
		}
		gw := global.Load()
		tidp := globalTidp(gw)
		if tidp == 0 {
			return globalCnt(gw), true // no help request published
		}
		ph := &q.recs[tidp-1].phase2
		s := ph.seq2.Load()
		lp := ph.local.Load()
		c := ph.cnt.Load()
		if ph.seq1.Load() == s && lp != nil {
			// Complete phase 2 for the installer: clear INC, assigning
			// ticket c to its group. Fails harmlessly if already done.
			lp.CompareAndSwap(c|flagINC, c)
		}
		// Clear the publication. The {cnt, tid} word is ABA-free, so a
		// success here cannot clear a newer request.
		if global.CompareAndSwap(gw, packGlobal(globalCnt(gw), 0)) {
			return globalCnt(gw), true
		}
	}
}

// tryEnqSlow attempts to insert index at ticket t (Fig. 7,
// try_enq_slow). Returns true when the request is complete at this
// ticket (inserted by us or a peer), false when the group must advance
// to the next ticket.
//
//wfq:noalloc
func (q *Ring) tryEnqSlow(t, index uint64, r *record) bool {
	l := &q.lay
	m, thresh3 := l.words, q.thresh3 // hoisted: loop-invariant (//wfq:stable)
	tc, tn := m.cycleOf(t), l.noteOf(t)
	e := &q.entries[ring.Slot(t&l.posMask, l.order)]
	for {
		w := e.Load()
		if m.cycle(w) == tc {
			// Our group already filled this slot (possibly consumed
			// since: ⊥c) — unless a dequeuer group marked it ⊥ first,
			// in which case the position is burnt and we move on.
			return !m.isBottom(w)
		}
		if !m.cycBefore(m.cycle(w), tc) {
			return false // stale ticket; the group has moved on
		}
		if !m.noteBefore(m.note(w), tn) {
			return false // a peer averted this slot for all of us
		}
		if (!m.safe(w) && q.headCnt() > t) || !m.free(w) {
			// Unusable slot: avert helper enqueuers from using it even
			// if its state later changes (Note := Cycle(T)).
			if !e.CompareAndSwap(w, m.averted(w, tn)) {
				continue
			}
			return false
		}
		// Produce the entry in two steps: Enq=0 first.
		nw := m.produced(w, tc, tn, index)
		if !e.CompareAndSwap(w, nw) {
			continue
		}
		// Finalize the help request, then flip Enq to 1. If a dequeuer
		// already consumed the entry it set FIN for us (consume/
		// finalize_request) and the AND below has happened or will.
		if r.localTail.CompareAndSwap(t, t|flagFIN) {
			e.CompareAndSwap(nw, nw&^m.pendingBit())
		}
		if q.threshold.Load() != thresh3 {
			q.threshold.Store(thresh3)
		}
		return true
	}
}

// tryDeqSlow attempts to consume the entry at ticket h (Fig. 7,
// try_deq_slow). On success the result is NOT consumed here — helpers
// only set FIN; the helpee gathers and consumes the value afterwards
// (Fig. 5, lines 48-54), so exactly one value is delivered.
//
//wfq:noalloc
func (q *Ring) tryDeqSlow(h uint64, r *record) bool {
	l := &q.lay
	m := l.words // hoisted: loop-invariant (//wfq:stable)
	hc, hn := m.cycleOf(h), l.noteOf(h)
	e := &q.entries[ring.Slot(h&l.posMask, l.order)]
	for {
		w := e.Load()
		if m.cycle(w) == hc && !m.isBottom(w) {
			// Ready (a real index, or ⊥c if consumed by the helpee).
			r.localHead.CompareAndSwap(h, h|flagFIN)
			return true
		}
		if !m.free(w) {
			// Occupied by an older cycle.
			if m.cycBefore(m.cycle(w), hc) && m.noteBefore(m.note(w), hn) {
				// Avert helper dequeuers from this slot first.
				if !e.CompareAndSwap(w, m.averted(w, hn)) {
					continue
				}
				continue // reload; the unsafe-marking branch follows
			}
			if m.cycBefore(m.cycle(w), hc) {
				// Mark unsafe so the old cycle's enqueuer cannot use it.
				if !e.CompareAndSwap(w, m.unsafe(w)) {
					continue
				}
			}
		} else if m.cycBefore(m.cycle(w), hc) {
			// Empty slot: raise it to our cycle with ⊥ so a late
			// enqueuer of this ticket cannot fill it.
			if !e.CompareAndSwap(w, m.passed(w, hc, hn)) {
				continue
			}
		}
		// Nothing to consume at this ticket: check for emptiness. The
		// threshold was already decremented by slow_F&A for this ticket.
		t := q.tailCnt()
		if t <= h+1 {
			q.catchup(t, h+1)
		}
		if q.threshold.Load() < 0 {
			// Empty result, but only at the group's current ticket: a
			// peer that saw a non-negative threshold at h may already
			// have moved localHead to a fresh Head ticket. That ticket is
			// reserved and must pass through here — leaving it would let
			// a late enqueuer publish behind Head, losing the value — so
			// rejoin the group unless the request is finalized.
			return r.localHead.CompareAndSwap(h, h|flagFIN) || r.localHead.Load()&flagFIN != 0
		}
		return false
	}
}
