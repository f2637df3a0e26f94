// Tests of the kept-index slots: a scalar Dequeue that follows its
// handle's scalar Enqueue keeps the freed index for that handle's next
// Enqueue, and every Enqueue can steal a kept index, so a full report
// still means every index is in use.
package ringcore

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// mustQueue builds a *Queue[uint64] of kind with handles registered
// handles.
func mustQueue(t *testing.T, kind Kind, capacity uint64, handles int) (*Queue[uint64], []*QueueHandle[uint64]) {
	t.Helper()
	return mustQueueWith(t, kind, capacity, handles, nil)
}

// keepOne makes h keep one index: a scalar Enqueue, then the Dequeue
// that takes its value back. It fails unless h's slot then holds it.
func keepOne(t *testing.T, h *QueueHandle[uint64]) {
	t.Helper()
	if !h.Enqueue(7) {
		t.Fatal("Enqueue into a queue with room failed")
	}
	if v, ok := h.Dequeue(); !ok || v != 7 {
		t.Fatalf("Dequeue = (%d, %v), want (7, true)", v, ok)
	}
	if h.slot.kept.Load() == 0 {
		t.Fatal("a Dequeue right after its handle's Enqueue kept nothing")
	}
}

func TestFullStealsKeptIndex(t *testing.T) {
	// One handle keeps an index; another fills the queue. The last
	// value fits only by stealing the kept index, scalar or batch, and
	// the queue reports full only once it holds capacity values.
	const capacity = 8
	forEachKind(t, func(t *testing.T, kind Kind) {
		for _, batch := range []bool{false, true} {
			_, hs := mustQueue(t, kind, capacity, 2)
			keeper, filler := hs[0], hs[1]
			keepOne(t, keeper)
			if batch {
				if n := filler.EnqueueBatch(make([]uint64, capacity+1)); n != capacity {
					t.Fatalf("batch: EnqueueBatch filled %d of %d slots", n, capacity)
				}
			} else {
				for i := range capacity {
					if !filler.Enqueue(uint64(i)) {
						t.Fatalf("scalar: Enqueue %d of %d reported full", i, capacity)
					}
				}
			}
			if keeper.slot.kept.Load() != 0 {
				t.Fatalf("batch %v: the kept index was not stolen", batch)
			}
			if filler.Enqueue(99) || keeper.Enqueue(99) || filler.EnqueueBatch(make([]uint64, 2)) != 0 {
				t.Fatalf("batch %v: enqueue into a queue holding %d values succeeded", batch, capacity)
			}
			for range capacity {
				if _, ok := filler.Dequeue(); !ok {
					t.Fatalf("batch %v: full queue ran dry early", batch)
				}
			}
			if _, ok := filler.Dequeue(); ok {
				t.Fatalf("batch %v: more than capacity values", batch)
			}
		}
	})
}

func TestFullStealsRun(t *testing.T) {
	// One handle's first scalar Enqueue claims runLen fresh indices and
	// keeps the runLen-1 it did not use as its run; another handle
	// (registered, or SCQ's shared HandleAt(-1) one), enqueueing one
	// value at a time or in one batch, fills the queue only by
	// stealing the whole run, and the queue reports full only once it
	// holds capacity values.
	const capacity = 2 * runLen
	forEachKind(t, func(t *testing.T, kind Kind) {
		fillers := []string{"scalar", "batch"}
		if !kind.Census() {
			fillers = append(fillers, "shared")
		}
		for _, filler := range fillers {
			t.Run(filler, func(t *testing.T) {
				q, hs := mustQueue(t, kind, capacity, 2)
				owner, f := hs[0], hs[1]
				if filler == "shared" {
					var err error
					if f, err = q.HandleAt(-1); err != nil {
						t.Fatal(err)
					}
				}
				if !owner.Enqueue(0) {
					t.Fatal("first Enqueue failed")
				}
				run := &owner.slot.run
				if got, want := run.Load(), runWord(1, runLen-1); got != want {
					t.Fatalf("owner's run = %#x, want %d indices from 1 (%#x)", got, runLen-1, want)
				}
				if filler == "batch" {
					vs := make([]uint64, capacity)
					for i := range vs {
						vs[i] = uint64(i) + 1
					}
					if n := f.EnqueueBatch(vs); n != capacity-1 {
						t.Fatalf("EnqueueBatch filled %d of the %d free slots", n, capacity-1)
					}
				} else {
					for i := 1; i < capacity; i++ {
						if !f.Enqueue(uint64(i)) {
							t.Fatalf("Enqueue %d of %d reported full", i, capacity)
						}
					}
				}
				if run.Load() != 0 {
					t.Fatal("the owner's run was not stolen")
				}
				if f.Enqueue(99) || owner.Enqueue(99) || f.EnqueueBatch(make([]uint64, 2)) != 0 {
					t.Fatalf("enqueue into a queue holding %d values succeeded", capacity)
				}
				seen := make(map[uint64]bool, capacity)
				for range capacity {
					v, ok := f.Dequeue()
					if !ok {
						t.Fatal("full queue ran dry early")
					}
					if seen[v] {
						t.Fatalf("value %d dequeued twice", v)
					}
					seen[v] = true
				}
				if _, ok := f.Dequeue(); ok {
					t.Fatal("more than capacity values")
				}
			})
		}
	})
}

func TestRunTakesRaceOwner(t *testing.T) {
	// The owner uses its run while another handle, with the fresh
	// counter and fq exhausted, steals from it: each of the run's
	// indices goes to exactly one of them, so together they land
	// exactly the run's runLen-1 values, each once. Many short rounds,
	// each started by a spin barrier on two Ps, make the owner's take
	// and the steal overlap.
	const capacity, rounds = 2 * runLen, 2000
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	forEachKind(t, func(t *testing.T, kind Kind) {
		for round := range rounds {
			_, hs := mustQueue(t, kind, capacity, 2)
			owner, thief := hs[0], hs[1]
			first := make([]uint64, runLen)
			for i := range first {
				first[i] = uint64(i) + 1
			}
			if !owner.Enqueue(0) || thief.EnqueueBatch(first) != runLen {
				t.Fatal("first lap failed")
			}
			var wg sync.WaitGroup
			var ready, landed atomic.Int32
			for g, h := range hs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Start together: a goroutine's wakeup takes
					// longer than the takes themselves.
					for ready.Add(1); ready.Load() < 2; {
					}
					for i := range uint64(runLen) {
						if h.Enqueue(uint64(g+1)<<32 | i) {
							landed.Add(1)
						}
					}
				}()
			}
			wg.Wait()
			if n := landed.Load(); n != runLen-1 {
				t.Fatalf("round %d: %d values landed from a run of %d", round, n, runLen-1)
			}
			seen := make(map[uint64]bool, capacity)
			for range capacity {
				v, ok := thief.Dequeue()
				if !ok {
					t.Fatalf("round %d: full queue ran dry early", round)
				}
				if seen[v] {
					t.Fatalf("round %d: value %#x dequeued twice", round, v)
				}
				seen[v] = true
			}
			if _, ok := thief.Dequeue(); ok {
				t.Fatalf("round %d: more than capacity values", round)
			}
		}
	})
}

// countingRing counts the calls a handle makes on its fq ring.
type countingRing struct {
	indexRing
	calls int
}

func (r *countingRing) Enqueue(i uint64)             { r.calls++; r.indexRing.Enqueue(i) }
func (r *countingRing) Dequeue() (uint64, bool)      { r.calls++; return r.indexRing.Dequeue() }
func (r *countingRing) EnqueueBatch(is []uint64)     { r.calls++; r.indexRing.EnqueueBatch(is) }
func (r *countingRing) DequeueBatch(is []uint64) int { r.calls++; return r.indexRing.DequeueBatch(is) }

func TestAlternatingHandleSkipsFQ(t *testing.T) {
	// A handle that alternates Enqueue and Dequeue moves its index
	// between aq and its own slot: from a fresh queue on, one or two
	// such handles, each over several laps of aq's tickets, never
	// return an index to fq, so fq is never built and the footprint
	// stays where New left it. Past a first lap that built fq, fq's
	// Head and Tail never move. A pure receiver keeps nothing.
	const capacity = 8
	forEachKind(t, func(t *testing.T, kind Kind) {
		for _, handles := range []int{1, 2} {
			t.Run(fmt.Sprintf("fresh/handles=%d", handles), func(t *testing.T) {
				q, hs := mustQueue(t, kind, capacity, handles)
				bare := q.Footprint()
				const rounds = 4 * 2 * capacity // aq has 2n entries: 4 laps of tickets
				for i := range uint64(rounds) {
					for _, h := range hs {
						if !h.Enqueue(i) {
							t.Fatalf("round %d: Enqueue failed", i)
						}
					}
					for _, h := range hs {
						if v, ok := h.Dequeue(); !ok || v != i {
							t.Fatalf("round %d: Dequeue = (%d, %v), want (%d, true)", i, v, ok, i)
						}
					}
					if q.freeRing() != nil || q.Footprint() != bare {
						t.Fatalf("round %d: fq built %v, footprint %d B, want %d B", i, q.freeRing() != nil, q.Footprint(), bare)
					}
				}
			})
		}
		t.Run("past a lap", func(t *testing.T) {
			_, hs := mustQueue(t, kind, capacity, 2)
			h, other := hs[0], hs[1]
			buf := make([]uint64, capacity)
			if h.EnqueueBatch(buf) != capacity || h.DequeueBatch(buf) != capacity {
				t.Fatal("first lap did not fill and drain")
			}
			keepOne(t, h) // its index comes from fq; from here on, none does
			idx := h.slot.kept.Load()
			fq := &countingRing{indexRing: h.fq}
			h.fq = fq
			for i := range uint64(100) {
				if !h.Enqueue(i) {
					t.Fatalf("Enqueue %d failed", i)
				}
				if h.slot.kept.Load() != 0 {
					t.Fatal("Enqueue left its kept index in the slot")
				}
				if v, ok := h.Dequeue(); !ok || v != i {
					t.Fatalf("Dequeue = (%d, %v), want (%d, true)", v, ok, i)
				}
				if got := h.slot.kept.Load(); got != idx {
					t.Fatalf("slot holds %d after round %d, want index+1 = %d", got, i, idx)
				}
			}
			if fq.calls != 0 {
				t.Fatalf("alternating handle made %d fq calls, want 0", fq.calls)
			}
			// other only dequeues: it keeps nothing in its slot, and
			// its freed indices go onto its run or back to fq.
			if !h.Enqueue(1) {
				t.Fatal("Enqueue failed")
			}
			if _, ok := other.Dequeue(); !ok {
				t.Fatal("Dequeue failed")
			}
			if other.slot.kept.Load() != 0 || other.enq {
				t.Fatal("a handle that never enqueued kept an index")
			}
		})
	})
}

func TestKeepNeverOverwrites(t *testing.T) {
	// The unbounded construction gives a handle's two views one id: a
	// view whose slot is taken returns its index to fq instead of
	// overwriting the index the other view kept.
	forEachKind(t, func(t *testing.T, kind Kind) {
		q, err := New[uint64](kind, 8, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		var views [2]*QueueHandle[uint64]
		for i := range views {
			if views[i], err = q.HandleAt(0); err != nil {
				t.Fatal(err)
			}
		}
		keepOne(t, views[0])
		idx := views[0].slot.kept.Load()
		// views[1] takes the kept index from the shared slot, views[0]
		// claims another and keeps the taken one again when it
		// dequeues views[1]'s value, so views[1]'s Dequeue, which
		// follows its Enqueue, finds the slot taken.
		if !views[1].Enqueue(8) || !views[0].Enqueue(9) {
			t.Fatal("Enqueue failed")
		}
		if v, ok := views[0].Dequeue(); !ok || v != 8 {
			t.Fatalf("Dequeue = (%d, %v), want 8", v, ok)
		}
		if got := views[0].slot.kept.Load(); got != idx {
			t.Fatalf("slot holds %d, want the first view's %d", got, idx)
		}
		if v, ok := views[1].Dequeue(); !ok || v != 9 {
			t.Fatalf("Dequeue = (%d, %v), want 9", v, ok)
		}
		if got := views[0].slot.kept.Load(); got != idx {
			t.Fatalf("slot holds %d, want the first view's %d", got, idx)
		}
		if q.freeRing() == nil {
			t.Fatal("the second view's index went neither to the slot nor to fq")
		}
	})
}

func TestRetargetMovesSlot(t *testing.T) {
	// A handle moved to another queue uses its id's slot there; the
	// index it kept stays behind in the old queue's slot.
	forEachKind(t, func(t *testing.T, kind Kind) {
		a, ha := mustQueue(t, kind, 4, 2)
		b, _ := mustQueue(t, kind, 4, 2)
		h := ha[1]
		keepOne(t, h)
		idx := h.slot.kept.Load()
		h.Retarget(b)
		if h.slot != b.slot(1) {
			t.Fatal("Retarget left the handle on its old queue's slot")
		}
		if got := a.slot(1).kept.Load(); got != idx {
			t.Fatalf("old queue's slot holds %d, want %d", got, idx)
		}
		for i := range uint64(4) {
			if !h.Enqueue(i) {
				t.Fatalf("Enqueue %d into the new queue failed", i)
			}
		}
		if h.Enqueue(4) {
			t.Fatal("new queue took more than its capacity")
		}
	})
}

func TestSharedHandleNeverKeeps(t *testing.T) {
	// LockFreeQueue's handle-free operations run on an SCQ handle with
	// id -1, which any goroutine may use at once: it writes no handle
	// state and keeps nothing, but it still steals another handle's
	// kept index.
	q, hs := mustQueue(t, KindSCQ, 2, 1)
	s, err := q.HandleAt(-1)
	if err != nil {
		t.Fatal(err)
	}
	if s.slot != nil {
		t.Fatal("shared handle has a kept-index slot")
	}
	for range 3 {
		if !s.Enqueue(1) {
			t.Fatal("Enqueue failed")
		}
		if _, ok := s.Dequeue(); !ok {
			t.Fatal("Dequeue failed")
		}
	}
	if s.enq {
		t.Fatal("shared handle wrote its enqueue flag")
	}
	for id := range q.kept {
		if q.kept[id].kept.Load() != 0 {
			t.Fatalf("slot %d holds an index the shared handle kept", id)
		}
	}
	keepOne(t, hs[0])
	if !s.Enqueue(1) || !s.Enqueue(2) {
		t.Fatal("shared handle could not fill the queue")
	}
	if hs[0].slot.kept.Load() != 0 {
		t.Fatal("shared handle filled the queue without the kept index")
	}
}

func TestStealPassCoversIdsInUse(t *testing.T) {
	// The steal pass stops at one past the highest id a handle has
	// used on the queue, not at maxThreads, and still reaches every
	// slot that can hold an index: Register, HandleAt and Retarget
	// each raise the bound before their handle can keep.
	const maxThreads = 64
	forEachKind(t, func(t *testing.T, kind Kind) {
		build := func() *Queue[uint64] {
			q, err := New[uint64](kind, 4, maxThreads, nil)
			if err != nil {
				t.Fatal(err)
			}
			return q
		}
		reg, _ := mustQueue(t, kind, 4, maxThreads)
		if got := reg.ids.Load(); got != maxThreads {
			t.Fatalf("after %d Registers ids = %d", maxThreads, got)
		}
		a, b := build(), build()
		if got := a.ids.Load(); got != 0 {
			t.Fatalf("fresh queue: ids = %d, want 0", got)
		}
		filler, err := b.HandleAt(2)
		if err != nil {
			t.Fatal(err)
		}
		h, err := a.HandleAt(9)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.ids.Load(); got != 10 {
			t.Fatalf("HandleAt(9): ids = %d, want 10", got)
		}
		if got := b.ids.Load(); got != 3 {
			t.Fatalf("HandleAt(2): ids = %d, want 3", got)
		}
		h.Retarget(b)
		if got := b.ids.Load(); got != 10 {
			t.Fatalf("Retarget of id 9: ids = %d, want 10", got)
		}
		keepOne(t, h)
		for i := range uint64(4) {
			if !filler.Enqueue(i) {
				t.Fatalf("Enqueue %d reported full without stealing id 9's index", i)
			}
		}
		if h.slot.kept.Load() != 0 {
			t.Fatal("id 9's kept index was not stolen")
		}
	})
}

func TestKeepsAndStealsRaceAtTinyCapacity(t *testing.T) {
	// Four handles alternate scalar Enqueue and Dequeue on a small
	// queue and yield while each holds a kept index, so the others'
	// Enqueues find fq empty and steal it: steal's Swap races the
	// owner's take and its keep's CAS. At capacity 32 the first two
	// handles' first Enqueues claim a run each and the other two steal
	// from them, racing the owners' takes. No value may be lost or
	// delivered twice, and once they stop, the drained queue must take
	// exactly its capacity again: no index lost, none in two places.
	const handles, rounds = 4, 3000
	forEachKind(t, func(t *testing.T, kind Kind) {
		for _, capacity := range []int{2, 4, 2 * runLen} {
			t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
				_, hs := mustQueue(t, kind, uint64(capacity), handles+1)
				seen := make([]atomic.Int32, handles*rounds)
				var wg sync.WaitGroup
				for g, h := range hs[:handles] {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < rounds; {
							if h.Enqueue(uint64(g*rounds + i)) {
								i++
							}
							if v, ok := h.Dequeue(); ok {
								seen[v].Add(1)
							}
							runtime.Gosched()
						}
					}()
				}
				wg.Wait()
				last := hs[handles]
				for v, ok := last.Dequeue(); ok; v, ok = last.Dequeue() {
					seen[v].Add(1)
				}
				for v := range seen {
					if n := seen[v].Load(); n != 1 {
						t.Fatalf("value %d delivered %d times", v, n)
					}
				}
				for i := range capacity {
					if !last.Enqueue(uint64(i)) {
						t.Fatalf("drained queue took %d of %d values: an index was lost", i, capacity)
					}
				}
				if last.Enqueue(uint64(capacity)) {
					t.Fatal("drained queue took more than its capacity: an index was in two places")
				}
			})
		}
	})
}
