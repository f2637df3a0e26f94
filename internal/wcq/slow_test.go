package wcq

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ring"
)

// stageEnqueueRequest publishes an enqueue help request on h's record
// exactly like Enqueue's slow path does, without running it — the
// "stalled helpee" of Lemma 5.3.
func stageEnqueueRequest(h *Handle, ticket, index uint64) uint64 {
	r := h.r
	seq := r.seq1.Load()
	r.localTail.Store(ticket)
	r.initTail.Store(ticket)
	r.index.Store(index)
	r.enqueue.Store(true)
	r.seq2.Store(seq)
	r.pending.Store(true)
	return seq
}

func stageDequeueRequest(h *Handle, ticket uint64) uint64 {
	r := h.r
	seq := r.seq1.Load()
	r.localHead.Store(ticket)
	r.initHead.Store(ticket)
	r.enqueue.Store(false)
	r.seq2.Store(seq)
	r.pending.Store(true)
	return seq
}

func finishRequest(h *Handle, seq uint64) {
	h.r.pending.Store(false)
	h.r.seq1.Store(seq + 1)
}

func slotOf(q *Ring, counter uint64) uint64 {
	return ring.Slot(counter&q.lay.posMask, q.lay.order)
}

// syntheticEnqTicket returns a ticket value suitable for staging a
// slow-path request in a single-threaded test: the last value below
// the current Tail counter. (Genuinely burning a ticket is hard to do
// deterministically because catchup rescues poisoned slots; any value
// below the global counter seeds slow_F&A identically.)
func syntheticEnqTicket(q *Ring) uint64 { return q.tailCnt() - 1 }

// stagedCaps are the ring capacities the staged helper tests run at:
// one whose entries ring.Slot places with Remap, and the smallest it
// places with spread.
var stagedCaps = []uint64{8, 1 << (ring.SpreadOrder - 1)}

// TestHelperCompletesStalledEnqueue is the heart of wait-freedom: a
// helpee that publishes a request and then stalls forever still gets
// its element inserted, purely by another thread's helpEnqueue.
func TestHelperCompletesStalledEnqueue(t *testing.T) {
	for _, c := range stagedCaps {
		t.Run(fmt.Sprintf("cap=%d", c), func(t *testing.T) { helperCompletesStalledEnqueue(t, c) })
	}
}

func helperCompletesStalledEnqueue(t *testing.T, capacity uint64) {
	q, hs := newTestRing(t, capacity, 2, nil)
	stalled, helper := hs[0], hs[1]

	// Remap and spread place tickets 0 and 1 alike; move Tail past
	// them so the ticket the helper inserts at depends on the layout.
	for i := uint64(0); i < 4; i++ {
		helper.Enqueue(i)
		if v, ok := helper.Dequeue(); !ok || v != i {
			t.Fatalf("warmup dequeue got (%d,%v), want %d", v, ok, i)
		}
	}
	tk := syntheticEnqTicket(q)
	seq := stageEnqueueRequest(stalled, tk, 7)

	q.helpEnqueue(stalled.r, helper.r)

	if stalled.r.localTail.Load()&flagFIN == 0 {
		t.Fatal("helper did not finalize the request")
	}
	finishRequest(stalled, seq)

	v, ok := helper.Dequeue()
	if !ok || v != 7 {
		t.Fatalf("got (%d,%v), want (7,true)", v, ok)
	}
	if v, ok := helper.Dequeue(); ok {
		t.Fatalf("duplicate element %d", v)
	}
}

// TestHelperCompletesStalledDequeue: a staged dequeue request is run
// to completion by a helper; the helpee's gather step then delivers
// the value exactly once.
func TestHelperCompletesStalledDequeue(t *testing.T) {
	for _, c := range stagedCaps {
		t.Run(fmt.Sprintf("cap=%d", c), func(t *testing.T) { helperCompletesStalledDequeue(t, c) })
	}
}

func helperCompletesStalledDequeue(t *testing.T, capacity uint64) {
	q, hs := newTestRing(t, capacity, 3, nil)
	stalled, producer, helper := hs[0], hs[1], hs[2]

	// Remap and spread place tickets 0 and 1 alike; start past them so
	// the staged ticket's entry depends on the layout.
	for i := uint64(0); i < 4; i++ {
		producer.Enqueue(1)
		if v, ok := stalled.Dequeue(); !ok || v != 1 {
			t.Fatalf("warmup dequeue %d got (%d,%v)", i, v, ok)
		}
	}
	producer.Enqueue(7) // the value the stalled dequeue must receive

	// Stage with the last already-consumed head ticket, as if the
	// stalled thread's fast attempts had burnt it.
	tk := q.headCnt() - 1
	seq := stageDequeueRequest(stalled, tk)

	q.helpDequeue(stalled.r, helper.r)
	if stalled.r.localHead.Load()&flagFIN == 0 {
		t.Fatal("helper did not finalize the dequeue request")
	}

	// Gather exactly as Dequeue's slow path epilogue does.
	l := &q.lay
	hh := stalled.r.localHead.Load() & cntMask
	e := &q.entries[slotOf(q, hh)]
	w := e.Load()
	ent := l.unpack(w)
	finishRequest(stalled, seq)
	if ent.cycle != l.oCycle(hh) || ent.index == oBottom {
		t.Fatalf("gather found no value at ticket %d (entry %+v)", hh, ent)
	}
	if ent.index == oBottomC {
		t.Fatal("value consumed by someone other than the helpee")
	}
	q.consume(hh, e, w, stalled.r.tid)
	if ent.index != 7 {
		t.Fatalf("gathered %d, want 7", ent.index)
	}
	if v, ok := helper.Dequeue(); ok {
		t.Fatalf("value %d delivered twice", v)
	}
}

// TestDeqSlowEmptyKeepsPeerTicket: a cooperative dequeue group member
// that sees a negative threshold at ticket h must not end the request
// once a peer has already taken the next Head ticket for the group.
// Ending it there abandons that ticket unprocessed, and a late enqueue
// of the same cycle then publishes a value behind Head where no
// dequeuer will ever look.
func TestDeqSlowEmptyKeepsPeerTicket(t *testing.T) {
	q, hs := newTestRing(t, 8, 2, nil)
	owner, peer := hs[0], hs[1]
	h := q.headCnt()
	seq := stageDequeueRequest(owner, h)
	q.head.Store(packGlobal(h+1, 0)) // h was the group's ticket

	// The peer saw a non-negative threshold at h and took h+1.
	v := h
	if !q.slowFAA(&q.head, &owner.r.localHead, &v, true, peer.r) || v != h+1 {
		t.Fatalf("peer slowFAA: ticket %d, want %d", v, h+1)
	}
	// The owner now sees an empty ring at h.
	q.threshold.Store(-1)
	if q.tryDeqSlow(h, owner.r) {
		t.Fatal("tryDeqSlow ended the request while the group held an unprocessed ticket")
	}
	// Rejoining, the owner processes h+1, which finalizes the request.
	q.dequeueSlow(h, owner.r, seq, owner.r)
	finishRequest(owner, seq)
	if lh := owner.r.localHead.Load(); lh != (h+1)|flagFIN {
		t.Fatalf("localHead %#x, want ticket %d with FIN", lh, h+1)
	}
	// The slot at h+1 was raised past the late enqueuer's cycle.
	if q.enqueueAt(h+1, 3) {
		t.Fatal("late enqueuer published at a ticket Head had passed")
	}
}

// TestSlowFAAFINStopsHelpers: once FIN is set on the request's local
// counter, slowFAA must return false without touching the global.
func TestSlowFAAFINStopsHelpers(t *testing.T) {
	q, hs := newTestRing(t, 8, 2, nil)
	r := hs[0].r
	r.localTail.Store(5 | flagFIN)
	g0 := q.tail.Load()
	v := uint64(5)
	if q.slowFAA(&q.tail, &r.localTail, &v, false, hs[1].r) {
		t.Fatal("slowFAA returned true despite FIN")
	}
	if q.tail.Load() != g0 {
		t.Fatal("slowFAA advanced the global counter despite FIN")
	}
}

// TestSlowFAAAssignsTicketOnce: N threads running slowFAA against the
// same request must all converge on the same ticket, and the global
// counter must advance exactly once.
func TestSlowFAAAssignsTicketOnce(t *testing.T) {
	const helpers = 8
	q, hs := newTestRing(t, 8, helpers+1, nil)
	r := hs[helpers].r
	start := q.tailCnt()
	init := start - 1 // the request's pretend last fast-path ticket
	r.localTail.Store(init)
	var wg sync.WaitGroup
	tickets := make([]uint64, helpers)
	for i := 0; i < helpers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := init
			if !q.slowFAA(&q.tail, &r.localTail, &v, false, hs[i].r) {
				t.Error("slowFAA returned false without FIN")
			}
			tickets[i] = v
		}(i)
	}
	wg.Wait()
	for i := 1; i < helpers; i++ {
		if tickets[i] != tickets[0] {
			t.Fatalf("divergent tickets: %v", tickets)
		}
	}
	if tickets[0] != start {
		t.Fatalf("ticket %d, want %d", tickets[0], start)
	}
	if got := q.tailCnt(); got != start+1 {
		t.Fatalf("global advanced to %d, want exactly %d", got, start+1)
	}
	if tidp := globalTidp(q.tail.Load()); tidp != 0 {
		t.Fatalf("phase2 publication not cleared: tidp=%d", tidp)
	}
	if lt := r.localTail.Load(); lt != start {
		t.Fatalf("localTail = %#x, want plain ticket %d", lt, start)
	}
}

// TestStaleHelperCannotCrossRequests: a helper that captured request
// k's snapshot must not insert k's index once the helpee is on request
// k+1 — the seq re-validation guard.
func TestStaleHelperCannotCrossRequests(t *testing.T) {
	q, hs := newTestRing(t, 8, 2, nil)
	helpee, helper := hs[0], hs[1]

	tk := syntheticEnqTicket(q)
	seq := stageEnqueueRequest(helpee, tk, 3)
	thr := helpee.r
	snapSeq := thr.seq2.Load()
	snapIdx := thr.index.Load()
	snapTail := thr.initTail.Load()

	// Helpee completes request k itself and stages request k+1.
	q.enqueueSlow(snapTail, snapIdx, thr, seq, helpee.r)
	if thr.localTail.Load()&flagFIN == 0 {
		t.Fatal("request k did not finish")
	}
	finishRequest(helpee, seq)
	// A filler fast-path enqueue advances the Tail counter; it stays in
	// the queue and is accounted for in the final drain.
	filler := uint64(5)
	fillerIn := false
	tk2, ok := q.tryEnqueue(filler)
	if ok {
		fillerIn = true
		tk2 = q.tailCnt() - 1
	}
	seq2 := stageEnqueueRequest(helpee, tk2, 4)

	// The stale helper runs with request k's snapshot. The seq guard
	// must stop it before it inserts index 3 for request k+1.
	q.enqueueSlow(snapTail, snapIdx, thr, snapSeq, helper.r)

	// Now complete request k+1 properly.
	q.enqueueSlow(thr.initTail.Load(), 4, thr, seq2, helpee.r)
	finishRequest(helpee, seq2)

	counts := map[uint64]int{}
	for {
		v, ok := helper.Dequeue()
		if !ok {
			break
		}
		counts[v]++
	}
	want := map[uint64]int{3: 1, 4: 1}
	if fillerIn {
		want[filler] = 1
	}
	for v, n := range counts {
		if want[v] != n {
			t.Fatalf("drained %v, want %v", counts, want)
		}
	}
	if len(counts) != len(want) {
		t.Fatalf("drained %v, want %v", counts, want)
	}
}

// TestHelpThreadsScansAndHelps: a pending request is picked up by a
// busy peer as a side effect of its own operations.
func TestHelpThreadsScansAndHelps(t *testing.T) {
	q, hs := newTestRing(t, 64, 2, &Options{HelpDelay: 1})
	stalledH, worker := hs[0], hs[1]

	tk := syntheticEnqTicket(q)
	seq := stageEnqueueRequest(stalledH, tk, 11)

	found := 0
	deadline := time.Now().Add(10 * time.Second)
	for stalledH.r.localTail.Load()&flagFIN == 0 {
		worker.Enqueue(1)
		if v, ok := worker.Dequeue(); ok && v == 11 {
			found++
		}
		if time.Now().After(deadline) {
			t.Fatal("request not helped within deadline")
		}
	}
	finishRequest(stalledH, seq)
	for {
		v, ok := worker.Dequeue()
		if !ok {
			break
		}
		if v == 11 {
			found++
		}
	}
	if found != 1 {
		t.Fatalf("helped element delivered %d times, want 1", found)
	}
}

// TestFinalizeRequestMatchesOnlyExactCounter verifies FIN is set only
// on a record whose localTail counter equals h exactly, and that
// flagged (INC) counters are matched but left unmodified.
func TestFinalizeRequestMatchesOnlyExactCounter(t *testing.T) {
	q, hs := newTestRing(t, 8, 3, nil)
	a, b := hs[0].r, hs[1].r
	a.localTail.Store(100)
	b.localTail.Store(101)
	q.finalizeRequest(100, hs[2].r.tid)
	if a.localTail.Load() != 100|flagFIN {
		t.Fatal("matching record not finalized")
	}
	if b.localTail.Load() != 101 {
		t.Fatal("non-matching record finalized")
	}
	b.localTail.Store(102 | flagINC)
	q.finalizeRequest(102, hs[2].r.tid)
	if b.localTail.Load() != 102|flagINC {
		t.Fatal("INC-flagged record was modified")
	}
	// The scanner must skip the caller's own record.
	self := hs[2].r
	self.localTail.Store(103)
	q.finalizeRequest(103, self.tid)
	if self.localTail.Load() != 103 {
		t.Fatal("finalizeRequest matched the caller's own record")
	}
}

// TestLoadGlobalHelpsForeignPhase2: a thread that merely loads the
// global must complete a published phase-2 request on the way.
func TestLoadGlobalHelpsForeignPhase2(t *testing.T) {
	q, hs := newTestRing(t, 8, 2, nil)
	installer, other := hs[0].r, hs[1].r

	cnt := q.tailCnt()
	installer.localTail.Store(cnt | flagINC)
	ph := &installer.phase2
	s := ph.seq1.Load() + 1
	ph.seq1.Store(s)
	ph.local.Store(&installer.localTail)
	ph.cnt.Store(cnt)
	ph.seq2.Store(s)
	if !q.tail.CompareAndSwap(packGlobal(cnt, 0), packGlobal(cnt+1, uint64(installer.tid)+1)) {
		t.Fatal("setup CAS failed")
	}

	got, ok := q.loadGlobalHelpPhase2(&q.tail, &other.localHead)
	if !ok || got != cnt+1 {
		t.Fatalf("loadGlobal returned (%d,%v), want (%d,true)", got, ok, cnt+1)
	}
	if installer.localTail.Load() != cnt {
		t.Fatalf("phase2 not completed: localTail=%#x", installer.localTail.Load())
	}
	if globalTidp(q.tail.Load()) != 0 {
		t.Fatal("publication not cleared")
	}
}

// TestLoadGlobalSkipsStalePhase2: an expired phase2 record (seq1 !=
// seq2) must not be applied, but the publication must still be
// cleared so fast paths are unaffected.
func TestLoadGlobalSkipsStalePhase2(t *testing.T) {
	q, hs := newTestRing(t, 8, 2, nil)
	installer, other := hs[0].r, hs[1].r

	cnt := q.tailCnt()
	installer.localTail.Store(cnt | flagINC)
	ph := &installer.phase2
	ph.seq1.Store(10)
	ph.local.Store(&installer.localTail)
	ph.cnt.Store(cnt)
	ph.seq2.Store(9) // stale: seq1 != seq2
	if !q.tail.CompareAndSwap(packGlobal(cnt, 0), packGlobal(cnt+1, uint64(installer.tid)+1)) {
		t.Fatal("setup CAS failed")
	}
	got, ok := q.loadGlobalHelpPhase2(&q.tail, &other.localHead)
	if !ok || got != cnt+1 {
		t.Fatalf("loadGlobal returned (%d,%v)", got, ok)
	}
	if installer.localTail.Load() != cnt|flagINC {
		t.Fatal("stale phase2 was applied")
	}
	if globalTidp(q.tail.Load()) != 0 {
		t.Fatal("stale publication not cleared")
	}
}

// TestConcurrentForcedSlowSoak hammers a capacity-2 ring with forced
// slow paths from many goroutines, checking liveness when every
// contended operation goes slow.
func TestConcurrentForcedSlowSoak(t *testing.T) {
	const threads = 6
	const per = 2000
	q, err := NewRing(2, threads, forcedSlowOpts())
	if err != nil {
		t.Fatal(err)
	}
	credits := make(chan struct{}, 2)
	credits <- struct{}{}
	credits <- struct{}{}
	hs := make([]*Handle, threads)
	for g := range hs {
		if hs[g], err = q.Register(); err != nil {
			t.Fatal(err)
		}
	}
	// A consume that leaves an entry occupied strands the two credits'
	// values, and every worker then polls an empty ring: the watchdog
	// turns that into a failure instead of a spin until go test's
	// timeout.
	runWatched(t, threads, func(g int, tick func(), stopped func() bool) error {
		h := hs[g]
		for i := 0; i < per && !stopped(); i++ {
			select {
			case <-credits:
				h.Enqueue(uint64(i % 2))
				tick()
			default:
				if _, ok := h.Dequeue(); ok {
					credits <- struct{}{}
					tick()
				} else {
					runtime.Gosched()
				}
			}
		}
		return nil
	})
}
