package wcq

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ring"
)

// An entry word's cycle fields are w bits wide, so they wrap every
// 2^(w+o) tickets of a ring: 2^32 at capacity 2, 2^39 at 2^16. The
// tests in this file reach the wrap by position instead of by running
// that long: newRingAt starts a ring's Head and Tail at a chosen
// cycle, with every entry as the ring's own dequeuers leave it there.

// maxWrapOrder is the largest ring order the wrap tests run a ring at:
// ring.SpreadOrder (capacity 2^13), the smallest whose entries Slot
// places with spread, so both slot layouts cross the wrap; or 10 under
// -short, which CI's repeated race runs use. A lap is 2^o tickets, so
// each order costs twice the one below it: under -race at -cpu 2,4 on
// a 2-vCPU host, the wrap tests took about 4 s up to order 14 and 36 s
// up to order 17 (the paper's 2^16 ring), and order 30 would need
// 8 GiB of entries. TestWordFieldsMatchOracle checks the comparisons
// of every order, 2 to 30, word by word.
func maxWrapOrder() uint {
	if testing.Short() {
		return 10
	}
	return ring.SpreadOrder
}

// wrapLaps is the number of laps each ring run makes past its start.
const wrapLaps = 8

// wrapStall is how long a wrap test waits for an operation to complete
// before it reports the ring hung.
const wrapStall = 10 * time.Second

// wrapStart names a cycle to start a ring at, given its layout.
type wrapStart struct {
	name  string
	cycle func(l *layout) uint64
}

// belowWrap is a few cycles below the cycle fields' wrap; pastHalf is
// a few cycles past half a window, where a Note left at its initial 0
// would read as newer than every ticket.
var (
	belowWrap = wrapStart{"below wrap", func(l *layout) uint64 { return 1<<l.cycBits - 3 }}
	pastHalf  = wrapStart{"past half", func(l *layout) uint64 { return 1<<(l.cycBits-1) + 3 }}
)

// forWrapRings runs f at each start and at every order from 2 to
// maxWrapOrder(), stopping at the first failure so that a hung ring does
// not leave one stuck goroutine per order behind.
func forWrapRings(t *testing.T, starts []wrapStart, f func(t *testing.T, capacity uint64, start uint64)) {
	for _, s := range starts {
		for order := uint(2); order <= maxWrapOrder(); order++ {
			capacity := uint64(1) << (order - 1)
			l, err := newLayout(capacity)
			if err != nil {
				t.Fatal(err)
			}
			start := s.cycle(&l)
			name := fmt.Sprintf("%s/cap=%d", s.name, capacity)
			if !t.Run(name, func(t *testing.T) { f(t, capacity, start) }) {
				return
			}
		}
	}
}

// newRingAt returns an empty ring whose Head and Tail both sit at the
// first ticket of cycle start, with every entry as a dequeuer passing
// it one cycle earlier leaves it. The entry's history is replayed with
// dequeueAt at cycles a quarter window apart, from construction up to
// start-1, so no step of it spans half a window: whatever the ring
// keeps in an entry across laps, the seed keeps too. It never averts:
// no avert has set the entry's Note since construction set it to 0,
// more than half a window before belowWrap or pastHalf.
func newRingAt(t *testing.T, capacity uint64, threads int, opts *Options, start uint64) (*Ring, []*Handle) {
	t.Helper()
	q, hs := newTestRing(t, capacity, threads, opts)
	l := &q.lay
	for c := uint64(0); c != start-1; {
		c = min(c+1<<(l.cycBits-2), start-1)
		q.dequeueAt(c<<l.order, -1)
	}
	w := q.entries[ring.Slot(0, l.order)].Load()
	for i := range q.entries {
		q.entries[i].Store(w)
	}
	ticket := packGlobal(start<<l.order, 0)
	q.head.Store(ticket)
	q.tail.Store(ticket)
	q.threshold.Store(-1)
	return q, hs
}

// runWatched runs work on n goroutines and waits for them to return.
// work calls tick after each operation it completes, and returns early
// once stopped reports true. When wrapStall passes without a tick,
// runWatched fails the test: a hung ring operation spins forever, so
// the goroutine running it is left behind.
func runWatched(t *testing.T, n int, work func(g int, tick func(), stopped func() bool) error) {
	t.Helper()
	var ticks atomic.Uint64
	var stop atomic.Bool
	defer stop.Store(true)
	tick := func() { ticks.Add(1) }
	errs := make(chan error, n)
	for g := 0; g < n; g++ {
		go func(g int) { errs <- work(g, tick, stop.Load) }(g)
	}
	poll := time.NewTicker(50 * time.Millisecond)
	defer poll.Stop()
	last, since := ticks.Load(), time.Now()
	for done := 0; done < n; {
		select {
		case err := <-errs:
			done++
			if err != nil {
				t.Fatal(err)
			}
		case <-poll.C:
			if now := ticks.Load(); now != last {
				last, since = now, time.Now()
			} else if time.Since(since) > wrapStall {
				t.Fatalf("no operation completed for %v (%d before): the ring hung", wrapStall, last)
			}
		}
	}
}

// TestCycleWrap runs a ring from a few cycles below the cycle fields'
// wrap for wrapLaps laps, one goroutine moving up to eight values at a
// time through it in FIFO order and probing it empty after each round:
// with scalar operations and with batch operations.
func TestCycleWrap(t *testing.T) {
	for _, batch := range []bool{false, true} {
		t.Run(fmt.Sprintf("batch=%v", batch), func(t *testing.T) {
			forWrapRings(t, []wrapStart{belowWrap}, func(t *testing.T, capacity, start uint64) {
				q, hs := newRingAt(t, capacity, 1, nil, start)
				runWatched(t, 1, func(_ int, tick func(), stopped func() bool) error {
					return wrapRounds(q, hs[0], batch, tick, stopped)
				})
			})
		})
	}
}

// wrapRounds moves values through q in rounds until Head is wrapLaps
// laps past where it started.
func wrapRounds(q *Ring, h *Handle, batch bool, tick func(), stopped func() bool) error {
	k := min(q.Cap(), 8)
	in, out := make([]uint64, k), make([]uint64, k)
	for i := range in {
		in[i] = uint64(i)
	}
	end := q.headCnt() + wrapLaps*q.lay.nSlots
	for q.headCnt() < end && !stopped() {
		if batch {
			h.EnqueueBatch(in)
			for got := 0; got < len(out); {
				n := h.DequeueBatch(out[got:])
				if n == 0 {
					return fmt.Errorf("head %d: ring empty after %d of %d values", q.headCnt(), got, k)
				}
				got += n
			}
		} else {
			for _, v := range in {
				h.Enqueue(v)
			}
			for i := range out {
				v, ok := h.Dequeue()
				if !ok {
					return fmt.Errorf("head %d: ring empty after %d of %d values", q.headCnt(), i, k)
				}
				out[i] = v
			}
		}
		for i, v := range out {
			if v != in[i] {
				return fmt.Errorf("head %d: got %v, want %v", q.headCnt(), out, in)
			}
		}
		if v, ok := h.Dequeue(); ok {
			return fmt.Errorf("head %d: phantom value %d", q.headCnt(), v)
		}
		tick()
	}
	return nil
}

// TestCycleWrapForcedSlow runs a ring from a few cycles below the
// wrap with a producer and a consumer on the slow path's settings
// (patience 1, a help scan every operation), so an operation that
// meets its entry in an unusable state goes slow and is helped. The
// producer sends wrapLaps laps of values, each an index no other value
// in the ring holds, and the consumer checks they arrive in order.
func TestCycleWrapForcedSlow(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	forWrapRings(t, []wrapStart{belowWrap}, func(t *testing.T, capacity, start uint64) {
		q, hs := newRingAt(t, capacity, 2, forcedSlowOpts(), start)
		total := wrapLaps * q.lay.nSlots
		var consumed atomic.Uint64
		runWatched(t, 2, func(g int, tick func(), stopped func() bool) error {
			h := hs[g]
			if g == 0 {
				for i := uint64(0); i < total; i++ {
					for i-consumed.Load() >= capacity {
						if stopped() {
							return nil
						}
						runtime.Gosched()
					}
					h.Enqueue(i % capacity)
					tick()
				}
				return nil
			}
			for i := uint64(0); i < total; {
				if stopped() {
					return nil
				}
				v, ok := h.Dequeue()
				if !ok {
					runtime.Gosched()
					continue
				}
				if v != i%capacity {
					return fmt.Errorf("value %d: got index %d, want %d", i, v, i%capacity)
				}
				i++
				consumed.Store(i)
				tick()
			}
			return nil
		})
	})
}

// TestCycleWrapSlowEnqueue stages a slow-path enqueue right at a start
// and has a helper run it. The group's first ticket is the start's
// first, whose entry is free and safe, so the value must go there, and
// nowhere later: the entry's Note, last set more than half a window
// earlier, must not read as an avert of that ticket.
func TestCycleWrapSlowEnqueue(t *testing.T) {
	forWrapRings(t, []wrapStart{belowWrap, pastHalf}, func(t *testing.T, capacity, start uint64) {
		q, hs := newRingAt(t, capacity, 2, nil, start)
		stalled, helper := hs[0], hs[1]
		first := q.tailCnt()
		seq := stageEnqueueRequest(stalled, first-1, 1)
		runWatched(t, 1, func(int, func(), func() bool) error {
			q.helpEnqueue(stalled.r, helper.r)
			return nil
		})
		if lt := stalled.r.localTail.Load(); lt != first|flagFIN {
			t.Fatalf("request ended at ticket %d (FIN %v), want %d", lt&cntMask, lt&flagFIN != 0, first)
		}
		finishRequest(stalled, seq)
		if v, ok := helper.Dequeue(); !ok || v != 1 {
			t.Fatalf("got (%d,%v), want (1,true)", v, ok)
		}
	})
}
