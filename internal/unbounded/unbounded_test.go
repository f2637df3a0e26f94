package unbounded

import (
	"fmt"
	"reflect"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
	"weak"

	"repro/internal/atomicx"
	"repro/internal/metrics"
	"repro/internal/ringcore"
	"repro/internal/wcq"
)

type maker func(t *testing.T, ringCap uint64) *Queue[uint64]

// makers builds each variant with a kept-index slot and a run for
// every id below 64, plus an LSCQ whose handles have neither and claim
// fresh indices one at a time.
func makers() map[string]maker {
	return map[string]maker{
		"LSCQ":         func(t *testing.T, rc uint64) *Queue[uint64] { return newQueue(t, ringcore.KindSCQ, rc, 64) },
		"UWCQ":         func(t *testing.T, rc uint64) *Queue[uint64] { return newQueue(t, ringcore.KindWCQ, rc, 64) },
		"SlotlessLSCQ": func(t *testing.T, rc uint64) *Queue[uint64] { return newQueue(t, ringcore.KindSCQ, rc, 0) },
	}
}

// newQueue builds a queue whose sink counts ring turnovers.
func newQueue(t *testing.T, kind ringcore.Kind, ringCap uint64, maxThreads int) *Queue[uint64] {
	t.Helper()
	q, err := New[uint64](kind, ringCap, maxThreads, &ringcore.Options{Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// ringsBuilt counts the rings ever constructed: the first, built by
// New, plus every ring a turnover built, linked or dropped.
func ringsBuilt(q *Queue[uint64]) int { return 1 + int(q.met.Count(metrics.RingAlloc)) }

// turnovers counts the rings linked behind the first one.
func turnovers(q *Queue[uint64]) int { return int(q.met.Count(metrics.RingSeal)) }

// newHandles registers n handles with q.
func newHandles(t *testing.T, q *Queue[uint64], n int) []*Handle[uint64] {
	t.Helper()
	hs := make([]*Handle[uint64], n)
	for i := range hs {
		var err error
		if hs[i], err = q.Handle(); err != nil {
			t.Fatal(err)
		}
	}
	return hs
}

// watchdogTimeout bounds the consumer loops of the concurrent tests,
// with room for -race: a lost value would otherwise keep them
// spinning until go test's own timeout.
const watchdogTimeout = 60 * time.Second

// watchdog returns a flag that turns true once watchdogTimeout has
// passed; consumer loops poll it and return.
func watchdog(t *testing.T) *atomic.Bool {
	var expired atomic.Bool
	timer := time.AfterFunc(watchdogTimeout, func() { expired.Store(true) })
	t.Cleanup(func() { timer.Stop() })
	return &expired
}

// failUndelivered fails t when some of the values seen counts were
// never delivered, naming how many were, the first few missing, and
// whether the watchdog stopped the consumers.
func failUndelivered(t *testing.T, q *Queue[uint64], seen []atomic.Int32, expired *atomic.Bool) {
	t.Helper()
	var delivered int
	var missing []int
	for i := range seen {
		if seen[i].Load() > 0 {
			delivered++
		} else if len(missing) < 8 {
			missing = append(missing, i)
		}
	}
	if delivered < len(seen) {
		t.Fatalf("%d of %d values delivered, first missing %v (rings=%d, watchdog expired: %v)",
			delivered, len(seen), missing, ringsBuilt(q), expired.Load())
	}
}

// ringSizes returns the Footprint of one of q's rings as turnover
// builds it, without a free-index ring, and of the same ring once it
// has recycled an index and so built one.
func ringSizes(t *testing.T, q *Queue[uint64]) (bare, full uint64) {
	t.Helper()
	r, err := q.mk()
	if err != nil {
		t.Fatal(err)
	}
	bare = r.Footprint()
	h, err := r.HandleAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if h.EnqueueBatch([]uint64{1}) != 1 || h.DequeueBatch(make([]uint64, 1)) != 1 {
		t.Fatal("a fresh ring did not take and give back one value")
	}
	if full = r.Footprint(); full <= bare {
		t.Fatalf("a recycle left the ring at %d B, without fq %d B", full, bare)
	}
	return bare, full
}

// failUnlessOneRing fails t unless the drained q holds exactly one live
// ring and Footprint counts that ring alone. The ring left is the
// unsealed tail, which recycles what is drained from it, so it has
// built its free-index ring; the rings sealed and drained before it
// never did, and no ring is held outside the list.
func failUnlessOneRing(t *testing.T, q *Queue[uint64]) {
	t.Helper()
	_, full := ringSizes(t, q)
	if got := q.Footprint(); got != full || q.Rings() != 1 {
		t.Fatalf("retained %d B in %d rings after a drain, want one ring of %d B", got, q.Rings(), full)
	}
}

// raceProducers has every handle of hs enqueue per values at once, so
// their ring turnovers race; producer i's value j is i<<32 | j. A
// batch above 1 enqueues them with EnqueueBatch calls of that length,
// so a producer that loses an append retries up to batch seeds on the
// winner's ring.
func raceProducers(hs []*Handle[uint64], per, batch int) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, h := range hs {
		wg.Add(1)
		go func(i int, h *Handle[uint64]) {
			defer wg.Done()
			vs := make([]uint64, 0, batch)
			<-start
			for j := 0; j < per; j++ {
				v := uint64(i)<<32 | uint64(j)
				if batch <= 1 {
					h.Enqueue(v)
					continue
				}
				if vs = append(vs, v); len(vs) == batch || j == per-1 {
					h.EnqueueBatch(vs)
					vs = vs[:0]
				}
			}
		}(i, h)
	}
	close(start)
	wg.Wait()
}

// drainChecked dequeues through h until the queue reports empty and
// fails unless it got each of the producers' per values exactly once
// and in each producer's order.
func drainChecked(t *testing.T, h *Handle[uint64], producers, per int) {
	t.Helper()
	next := make([]int, producers)
	for {
		v, ok := h.Dequeue()
		if !ok {
			break
		}
		p, j := int(v>>32), int(uint32(v))
		if p >= producers || j != next[p] {
			t.Fatalf("value %#x out of order or from no producer", v)
		}
		next[p]++
	}
	for p, n := range next {
		if n != per {
			t.Fatalf("producer %d: drained %d of %d values", p, n, per)
		}
	}
}

// raceUntil runs rounds of racing producers on hs, each drained
// through hs[0], until done reports true after a drain. Whether two
// producers meet at a turnover is up to the scheduler, so it runs with
// at least two Ps and gives up after a deadline.
func raceUntil(t *testing.T, hs []*Handle[uint64], per, batch int, done func() bool) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	for deadline := time.Now().Add(20 * time.Second); ; {
		raceProducers(hs, per, batch)
		drainChecked(t, hs[0], len(hs), per)
		if done() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the producers never met at a turnover")
		}
	}
}

func TestUnboundedSequentialGrowth(t *testing.T) {
	for name, mk := range makers() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			q := mk(t, 8) // tiny rings force frequent ring turnover
			h, err := q.Handle()
			if err != nil {
				t.Fatal(err)
			}
			const n = 1000
			for i := uint64(0); i < n; i++ {
				h.Enqueue(i)
			}
			if ringsBuilt(q) < n/8 {
				t.Fatalf("only %d rings for %d values in cap-8 rings", ringsBuilt(q), n)
			}
			for i := uint64(0); i < n; i++ {
				if v, ok := h.Dequeue(); !ok || v != i {
					t.Fatalf("got (%d,%v), want (%d,true)", v, ok, i)
				}
			}
			if _, ok := h.Dequeue(); ok {
				t.Fatal("phantom value after drain")
			}
		})
	}
}

func TestUnboundedInterleavedSmallRings(t *testing.T) {
	for name, mk := range makers() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			q := mk(t, 4)
			h, _ := q.Handle()
			next, exp := uint64(0), uint64(0)
			for round := 0; round < 500; round++ {
				for k := 0; k < 7; k++ { // deliberately > ring cap
					h.Enqueue(next)
					next++
				}
				for k := 0; k < 7; k++ {
					if v, ok := h.Dequeue(); !ok || v != exp {
						t.Fatalf("round %d: got (%d,%v), want %d", round, v, ok, exp)
					}
					exp++
				}
			}
		})
	}
}

func TestUnboundedMPMC(t *testing.T) {
	for name, mk := range makers() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			q := mk(t, 16)
			const (
				producers = 3
				consumers = 3
				per       = 4000
			)
			total := producers * per
			var got atomic.Int64
			seen := make([]atomic.Int32, total)
			expired := watchdog(t)
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				h, err := q.Handle()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(p int, h *Handle[uint64]) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						h.Enqueue(uint64(p*per + i))
					}
				}(p, h)
			}
			for c := 0; c < consumers; c++ {
				h, err := q.Handle()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(h *Handle[uint64]) {
					defer wg.Done()
					for got.Load() < int64(total) && !expired.Load() {
						v, ok := h.Dequeue()
						if !ok {
							runtime.Gosched()
							continue
						}
						seen[v].Add(1)
						got.Add(1)
					}
				}(h)
			}
			wg.Wait()
			failUndelivered(t, q, seen, expired)
			for i := range seen {
				if n := seen[i].Load(); n != 1 {
					t.Fatalf("value %d delivered %d times (rings=%d)", i, n, ringsBuilt(q))
				}
			}
		})
	}
}

func TestUnboundedFootprintGrowsWhileBuffered(t *testing.T) {
	q := newQueue(t, ringcore.KindSCQ, 8, 0)
	h, _ := q.Handle()
	f0 := q.Footprint()
	for i := uint64(0); i < 200; i++ {
		h.Enqueue(i) // never dequeue: rings accumulate
	}
	if q.Footprint() <= f0 {
		t.Fatalf("footprint did not grow: %d -> %d", f0, q.Footprint())
	}
	if q.Rings() < 25 {
		t.Fatalf("only %d live rings for 200 buffered values in cap-8 rings", q.Rings())
	}
}

func TestUnboundedFootprintBoundedAfterDrain(t *testing.T) {
	// The paper's bounded-memory claim under churn: once a burst
	// drains, one ring is left.
	for name, mk := range makers() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			q := mk(t, 8)
			h, err := q.Handle()
			if err != nil {
				t.Fatal(err)
			}
			perRing := q.Footprint() // exactly one live ring at rest
			for i := uint64(0); i < 2000; i++ {
				h.Enqueue(i)
			}
			peak := q.Footprint()
			if peak < 100*perRing {
				t.Fatalf("peak %d B did not reflect the burst (ring %d B)", peak, perRing)
			}
			for i := uint64(0); i < 2000; i++ {
				if _, ok := h.Dequeue(); !ok {
					t.Fatalf("drain at %d: queue empty", i)
				}
			}
			failUnlessOneRing(t, q)
		})
	}
}

func TestAlternatingProducersStrandNoRun(t *testing.T) {
	// Two handles take turns enqueueing exactly k rings' worth, one
	// call at a time. A handle with an id below maxThreads claims a run
	// of fresh indices with its scalar Enqueue, and a run is lost to a
	// ring only when a seal races its owner's claim: without a race the
	// other handle steals what is left of it before the ring seals, so
	// every ring fills to capacity, k rings hold the burst, and the
	// drained queue is back to its one ring, which has built its
	// free-index ring by recycling what was drained from it.
	const k = 4
	for name, mk := range makers() {
		for _, ringCap := range []uint64{8, 64} {
			t.Run(fmt.Sprintf("%s/cap=%d", name, ringCap), func(t *testing.T) {
				q := mk(t, ringCap)
				hs := newHandles(t, q, 2)
				n := k * ringCap
				for i := range n {
					hs[i%2].Enqueue(i)
				}
				if got := q.Rings(); got != k {
					t.Fatalf("%d values in %d rings, want %d full rings", n, got, k)
				}
				for i := range n {
					if v, ok := hs[i%2].Dequeue(); !ok || v != i {
						t.Fatalf("Dequeue %d = (%d, %v)", i, v, ok)
					}
				}
				if _, ok := hs[0].Dequeue(); ok {
					t.Fatal("phantom value after drain")
				}
				failUnlessOneRing(t, q)
			})
		}
	}
}

// freshOf returns ring r's counter of never-used indices, which
// ringcore does not export.
func freshOf(r *ringcore.Queue[uint64]) *atomicx.Counter {
	return (*atomicx.Counter)(unsafe.Pointer(reflect.ValueOf(r).Elem().FieldByName("fresh").UnsafeAddr()))
}

func TestLSCQHandlesClaimRuns(t *testing.T) {
	// Every LSCQ ring is built with the queue's maxThreads, so a handle
	// whose id is below it fills a ring's first lap with one F&A on the
	// ring's fresh counter per run of 16, where a handle at or past it
	// pays one per value.
	for _, n := range []uint64{8, 64, 1024} {
		for _, tc := range []struct {
			maxThreads, id int
			want           int64
		}{
			{64, 0, int64((n + 15) / 16)},
			{1, 1, int64(n)},
			{0, 0, int64(n)},
		} {
			t.Run(fmt.Sprintf("cap=%d/maxThreads=%d/id=%d", n, tc.maxThreads, tc.id), func(t *testing.T) {
				q, err := New[uint64](ringcore.KindSCQ, n, tc.maxThreads, &ringcore.Options{Mode: atomicx.CountingFAA})
				if err != nil {
					t.Fatal(err)
				}
				h := newHandles(t, q, tc.id+1)[tc.id]
				for i := range n {
					h.Enqueue(i)
				}
				if q.Rings() != 1 {
					t.Fatalf("%d values spilled out of one %d-slot ring", n, n)
				}
				if got := freshOf(q.head.Load().r).Adds(); got != tc.want {
					t.Fatalf("first lap of %d Enqueues added to fresh %d times, want %d", n, got, tc.want)
				}
			})
		}
	}
}

func TestLSCQSlotFootprint(t *testing.T) {
	// An LSCQ ring holds one 64 B line of kept-index slot and run per
	// id below maxThreads, up to wCQ's thread limit.
	slotless, err := New[uint64](ringcore.KindSCQ, 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 64, 256, wcq.MaxThreads + 1} {
		q, err := New[uint64](ringcore.KindSCQ, 8, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := q.Footprint()-slotless.Footprint(), 64*uint64(min(m, wcq.MaxThreads)); got != want {
			t.Fatalf("maxThreads %d: ring grew by %d B, want %d B", m, got, want)
		}
	}
}

func TestUnboundedPerProducerFIFOAcrossRings(t *testing.T) {
	// One producer, one consumer, ring turnover in the middle: strict
	// order must survive ring boundaries.
	q, err := New[uint64](ringcore.KindWCQ, 4, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	hp, _ := q.Handle()
	hc, _ := q.Handle()
	const n = 5000
	expired := watchdog(t)
	done := make(chan error, 1)
	go func() {
		next := uint64(0)
		for next < n {
			if expired.Load() {
				done <- fmt.Errorf("after %v: %d of %d values delivered, first missing %d (rings=%d)",
					watchdogTimeout, next, n, next, ringsBuilt(q))
				return
			}
			v, ok := hc.Dequeue()
			if !ok {
				runtime.Gosched()
				continue
			}
			if v != next {
				done <- errOrder{v, next}
				return
			}
			next++
		}
		done <- nil
	}()
	for i := uint64(0); i < n; i++ {
		hp.Enqueue(i)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestUWCQHandleCensus(t *testing.T) {
	q, err := New[uint64](ringcore.KindWCQ, 8, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Handle(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Handle(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Handle(); err == nil {
		t.Fatal("third handle accepted with maxThreads 2")
	}
	if _, err := New[uint64](ringcore.KindWCQ, 8, 0, nil); err == nil {
		t.Fatal("UWCQ built with maxThreads 0")
	}
}

type errOrder struct{ got, want uint64 }

func (e errOrder) Error() string { return "out of order" }

func TestQueueAsCore(t *testing.T) {
	// The kind shows in behaviour: with maxThreads 2 a third handle
	// fails on wCQ rings (the census) and succeeds on SCQ rings.
	for _, kind := range ringcore.Kinds() {
		var core ringcore.Core[uint64] = newQueue(t, kind, 8, 2)
		if core.Cap() != 0 {
			t.Fatalf("%v: Cap() = %d, want 0", kind, core.Cap())
		}
		for i := 0; i < 2; i++ {
			if _, err := core.Acquire(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := core.Acquire(); (err == nil) != (kind == ringcore.KindSCQ) {
			t.Fatalf("%v: third Acquire with maxThreads 2: err = %v", kind, err)
		}
	}
	var core ringcore.Core[uint64] = newQueue(t, ringcore.KindSCQ, 8, 0)
	h, err := core.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	// Through the Core contract: never full, batches always absorbed.
	if !h.Enqueue(1) || !h.Enqueue(2) {
		t.Fatal("unbounded core reported full")
	}
	if n := h.EnqueueBatch([]uint64{3, 4, 5}); n != 3 {
		t.Fatalf("EnqueueBatch = %d, want 3", n)
	}
	out := make([]uint64, 8)
	if n := h.DequeueBatch(out); n != 5 {
		t.Fatalf("DequeueBatch = %d, want 5", n)
	}
	for i, want := range []uint64{1, 2, 3, 4, 5} {
		if out[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], want)
		}
	}
	if _, ok := h.Dequeue(); ok {
		t.Fatal("phantom value after drain")
	}
}

func TestNodeSealStopsEnqueues(t *testing.T) {
	// A sealed ring takes no more values: the next enqueue links a
	// fresh ring behind it, and the sealed ring's values still drain
	// first.
	for name, mk := range makers() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			q := mk(t, 8)
			h, _ := q.Handle()
			h.Enqueue(1)
			n := q.tail.Load()
			n.r.Seal()
			h.Enqueue(2)
			if q.tail.Load() == n || n.next.Load() == nil {
				t.Fatal("enqueue on a sealed ring did not append a fresh ring")
			}
			for _, want := range []uint64{1, 2} {
				if v, ok := h.Dequeue(); !ok || v != want {
					t.Fatalf("got (%d,%v), want %d", v, ok, want)
				}
			}
		})
	}
}

func TestNodeDrainedBarrier(t *testing.T) {
	// drained needs the ring's seal, no enqueuer in flight on any
	// stripe, and an empty ring — an enqueuer that found the ring open
	// keeps it undrained until it leaves, whichever stripe its handle
	// counts on. A seal is for good, so the buffered-value half runs on
	// a second queue.
	for name, mk := range makers() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			q := mk(t, 8)
			n := q.tail.Load()
			if n.drained() {
				t.Fatal("unsealed node reported drained")
			}
			n.r.Seal()
			for i := range n.enqs {
				n.enqs[i].V.Add(1) // an enqueuer past its seal check, still in flight
				if n.drained() {
					t.Fatalf("drained with an enqueuer in flight on stripe %d", i)
				}
				n.enqs[i].V.Add(-1)
			}
			if !n.drained() {
				t.Fatal("sealed, idle, empty node not drained")
			}
			q = mk(t, 8)
			h, _ := q.Handle()
			n = q.tail.Load()
			h.Enqueue(7)
			n.r.Seal()
			if n.drained() {
				t.Fatal("drained with a value buffered")
			}
			if v, ok := h.Dequeue(); !ok || v != 7 {
				t.Fatalf("got (%d,%v), want 7", v, ok)
			}
			if !n.drained() {
				t.Fatal("not drained after the last value left")
			}
		})
	}
}

func TestSealedRingsDrainWithoutRecycling(t *testing.T) {
	// A sealed ring takes no more values, so dequeuers drain it
	// instead of handing its indices back to its free-index ring: a
	// probe handle on it then finds it full. The lone tail ring is never
	// sealed and keeps recycling, so it takes a full load again with no
	// turnover. The probe uses id 1, which no handle of this queue
	// holds.
	drains := map[string]func(h *Handle[uint64]) []uint64{
		"Dequeue": func(h *Handle[uint64]) []uint64 {
			var got []uint64
			for v, ok := h.Dequeue(); ok; v, ok = h.Dequeue() {
				got = append(got, v)
			}
			return got
		},
		"DequeueBatch": func(h *Handle[uint64]) []uint64 {
			out := make([]uint64, 16)
			return out[:h.DequeueBatch(out)]
		},
	}
	for name, mk := range makers() {
		for dname, drain := range drains {
			t.Run(name+"/"+dname, func(t *testing.T) {
				q := mk(t, 4)
				h, _ := q.Handle()
				for i := uint64(0); i < 12; i++ {
					h.Enqueue(i)
				}
				var nodes []*node[uint64]
				for n := q.head.Load(); n != nil; n = n.next.Load() {
					nodes = append(nodes, n)
				}
				if len(nodes) != 3 {
					t.Fatalf("12 values in %d rings of 4, want 3", len(nodes))
				}
				got := drain(h)
				if len(got) != 12 {
					t.Fatalf("drained %d values, want 12", len(got))
				}
				for i, v := range got {
					if v != uint64(i) {
						t.Fatalf("drained %v, want FIFO order 0..11", got)
					}
				}
				for i, n := range nodes[:2] {
					if !n.r.Sealed() {
						t.Fatalf("ring %d not sealed", i)
					}
					v, err := n.r.HandleAt(1)
					if err != nil {
						t.Fatal(err)
					}
					if v.Enqueue(99) {
						t.Fatalf("sealed ring %d took a value after its drain: its indices were recycled", i)
					}
				}
				tail := q.tail.Load()
				if tail != nodes[2] {
					t.Fatal("tail moved during the drain")
				}
				for i := uint64(0); i < 4; i++ {
					h.Enqueue(100 + i)
				}
				if q.Rings() != 1 || q.tail.Load() != tail {
					t.Fatalf("tail ring turned over on a full load after its drain: %d rings", q.Rings())
				}
			})
		}
	}
}

func TestHandlesTakeStripesRoundRobin(t *testing.T) {
	q := newQueue(t, ringcore.KindSCQ, 8, 0)
	for i, h := range newHandles(t, q, 2*enqStripes) {
		if want := uint(i % enqStripes); h.stripe != want {
			t.Fatalf("handle %d on stripe %d, want %d", i, h.stripe, want)
		}
	}
}

func TestTurnoverRaceDropsLoserRing(t *testing.T) {
	// Two producers that fill a ring at once both build a successor;
	// the one that loses the link drops its ring and retries its seeds
	// on the winner's, as Enqueue_Unbounded (Fig. 13) frees the loser's
	// ring. So every drain leaves exactly one live ring, and Footprint
	// counts that ring alone: for at least cycles concurrent fill/drain
	// cycles, and on until a turnover built a ring it did not link,
	// which only a lost race does. Batches of 3 retry up to 3 seeds at
	// once. raceUntil checks that every value arrives exactly once, in
	// its producer's order.
	const cycles = 8
	for name, mk := range makers() {
		t.Run(name, func(t *testing.T) {
			for _, batch := range []int{1, 3} {
				t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
					q := mk(t, 4)
					hs := newHandles(t, q, 2)
					cycle := 0
					raceUntil(t, hs, 64, batch, func() bool {
						cycle++
						failUnlessOneRing(t, q)
						lost := ringsBuilt(q)-1 > turnovers(q)
						return cycle >= cycles && lost
					})
				})
			}
		})
	}
}

func TestSealedRingsBuildNoFreeRing(t *testing.T) {
	// A ring filled once, sealed and drained never recycles an index,
	// so it never builds its free-index ring: a burst over 16 rings
	// leaves every sealed ring at the size turnover built it, scalar or
	// batch. Only the unsealed tail ring recycles, and it builds
	// exactly one on its first recycle.
	const ringCap, rings = 8, 16
	for name, mk := range makers() {
		for _, batch := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/batch=%d", name, batch), func(t *testing.T) {
				q := mk(t, ringCap)
				bare, full := ringSizes(t, q)
				hs := newHandles(t, q, 2)
				p, c := hs[0], hs[1]
				vs := make([]uint64, batch)
				for i := uint64(0); i < rings*ringCap; i += uint64(batch) {
					for j := range vs {
						vs[j] = i + uint64(j)
					}
					p.EnqueueBatch(vs)
				}
				var nodes []*node[uint64]
				for n := q.head.Load(); n != nil; n = n.next.Load() {
					nodes = append(nodes, n)
				}
				if len(nodes) != rings {
					t.Fatalf("burst spans %d rings, want %d", len(nodes), rings)
				}
				out := make([]uint64, batch)
				for i := uint64(0); i < rings*ringCap; {
					n := 0
					if batch > 1 {
						n = c.DequeueBatch(out)
					} else if v, ok := c.Dequeue(); ok {
						out[0], n = v, 1
					}
					if n == 0 {
						t.Fatalf("queue empty after %d values", i)
					}
					for _, v := range out[:n] {
						if v != i {
							t.Fatalf("got %d, want %d", v, i)
						}
						i++
					}
				}
				tail := nodes[len(nodes)-1]
				for i, n := range nodes[:len(nodes)-1] {
					if !n.r.Sealed() || n.r.Footprint() != bare {
						t.Fatalf("ring %d: sealed %v, %d B after its drain, want %d B without a free-index ring",
							i, n.r.Sealed(), n.r.Footprint(), bare)
					}
				}
				if tail.r.Sealed() || q.tail.Load() != tail || tail.r.Footprint() != full {
					t.Fatalf("tail ring: sealed %v, %d B after recycling, want %d B with one free-index ring",
						tail.r.Sealed(), tail.r.Footprint(), full)
				}
				for i := range 3 * ringCap { // more laps on the tail ring, through its one free-index ring
					p.Enqueue(uint64(i))
					if v, ok := c.Dequeue(); !ok || v != uint64(i) {
						t.Fatalf("lap value %d: got (%d, %v)", i, v, ok)
					}
				}
				if q.Rings() != 1 || tail.r.Footprint() != full || q.Footprint() != full {
					t.Fatalf("%d rings, tail %d B, queue %d B after more laps, want one ring of %d B",
						q.Rings(), tail.r.Footprint(), q.Footprint(), full)
				}
			})
		}
	}
}

func TestIdleHandleKeepsNoDrainedRings(t *testing.T) {
	// Handle a buffers a burst over 4096 rings and goes idle; handle b
	// drains it. A handle reaches rings only through its two views, so
	// once the garbage collector has run, at most the live rings and
	// two rings per handle may remain.
	const ringCap, rings = 4, 4096
	for name, mk := range makers() {
		t.Run(name, func(t *testing.T) {
			q := mk(t, ringCap)
			hs := newHandles(t, q, 2)
			a, b := hs[0], hs[1]
			for i := range uint64(rings * ringCap) {
				a.Enqueue(i)
			}
			ws := make([]weak.Pointer[ringcore.Queue[uint64]], 0, rings)
			for n := q.head.Load(); n != nil; n = n.next.Load() {
				ws = append(ws, weak.Make(n.r))
			}
			if len(ws) != rings {
				t.Fatalf("burst spans %d rings, want %d", len(ws), rings)
			}
			for i := range uint64(rings * ringCap) {
				if v, ok := b.Dequeue(); !ok || v != i {
					t.Fatalf("got (%d,%v), want %d", v, ok, i)
				}
			}
			runtime.GC()
			reachable := 0
			for _, w := range ws {
				if w.Value() != nil {
					reachable++
				}
			}
			if bound := q.Rings() + 2*len(hs); reachable > bound {
				t.Fatalf("%d of %d rings reachable after the drain, want at most %d", reachable, rings, bound)
			}
			runtime.KeepAlive(hs)
		})
	}
}

// liveHeap collects garbage and returns the bytes of live heap objects
// the collection marked.
func liveHeap() int64 {
	runtime.GC()
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return int64(s[0].Value.Uint64())
}

func TestFootprintTracksLiveHeap(t *testing.T) {
	// At 1024-slot rings, one handle buffers a 256-ring burst and
	// another drains it. Footprint counts what the queue retains, so the
	// live heap must move with it: within 10% over the burst, and after
	// the drain by no more than the two rings each handle's views may
	// keep beyond what Footprint counts.
	const ringCap, rings = 1024, 256
	for name, mk := range makers() {
		t.Run(name, func(t *testing.T) {
			q := mk(t, ringCap)
			hs := newHandles(t, q, 2)
			heap0, foot0 := liveHeap(), int64(q.Footprint())
			for i := range uint64(rings * ringCap) {
				hs[0].Enqueue(i)
			}
			heap, foot := liveHeap()-heap0, int64(q.Footprint())-foot0
			if r := float64(heap) / float64(foot); r < 0.9 || r > 1.1 {
				t.Fatalf("burst: live heap +%d B against Footprint +%d B (%.2fx), want within 10%%", heap, foot, r)
			}
			t.Logf("burst: live heap +%d B, Footprint +%d B", heap, foot)
			for i := range uint64(rings * ringCap) {
				if v, ok := hs[1].Dequeue(); !ok || v != i {
					t.Fatalf("got (%d,%v), want %d", v, ok, i)
				}
			}
			heap, foot = liveHeap()-heap0, int64(q.Footprint())-foot0
			_, ring := ringSizes(t, q)
			if bound := foot + 2*int64(len(hs))*int64(ring); heap > bound {
				t.Fatalf("drain: live heap +%d B against Footprint +%d B, want at most +%d B", heap, foot, bound)
			}
			t.Logf("drain: live heap +%d B, Footprint +%d B, ring %d B", heap, foot, ring)
			runtime.KeepAlive(hs)
		})
	}
}

func TestFootprintCountsValueSize(t *testing.T) {
	// With 24-byte values a ring's data array is three times that of
	// uint64 rings. A burst over 64 rings of 1024 must move the live
	// heap by what Footprint reports, within 10%, and each ring must
	// cost what a ring of uint64 values costs plus 16 B per slot.
	const ringCap, rings = 1024, 64
	for _, kind := range ringcore.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			words, err := New[uint64](kind, ringCap, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			q, err := New[[3]uint64](kind, ringCap, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := q.Footprint(), words.Footprint()+ringCap*16; got != want {
				t.Fatalf("ring footprint %d B, want %d B", got, want)
			}
			h, err := q.Handle()
			if err != nil {
				t.Fatal(err)
			}
			heap0, foot0 := liveHeap(), int64(q.Footprint())
			for i := range uint64(rings * ringCap) {
				h.Enqueue([3]uint64{i, i, i})
			}
			heap, foot := liveHeap()-heap0, int64(q.Footprint())-foot0
			if r := float64(heap) / float64(foot); r < 0.9 || r > 1.1 {
				t.Fatalf("burst: live heap +%d B against Footprint +%d B (%.2fx), want within 10%%", heap, foot, r)
			}
			runtime.KeepAlive(h)
		})
	}
}

func TestUWCQCensusSurvivesTurnover(t *testing.T) {
	// Two handles on a census of two: registering one handle twice with
	// one ring — a view pruned while its ring could still recur — would
	// exhaust the census and panic. Bursts of 10 rings keep pruning
	// running while the producer's tail rings are still live.
	const ringCap, burstRings, bursts = 4, 10, 100 // 1000 turnovers
	q := newQueue(t, ringcore.KindWCQ, ringCap, 2)
	p, _ := q.Handle()
	c, _ := q.Handle()
	const perBurst = ringCap * (burstRings + 1) // the empty tail ring, then burstRings more
	next, exp := uint64(0), uint64(0)
	for burst := 0; burst < bursts; burst++ {
		for i := 0; i < perBurst; i++ {
			p.Enqueue(next)
			next++
		}
		for i := 0; i < perBurst; i++ {
			if v, ok := c.Dequeue(); !ok || v != exp {
				t.Fatalf("burst %d: got (%d,%v), want %d", burst, v, ok, exp)
			}
			exp++
		}
	}
	if turns := turnovers(q); turns < bursts*burstRings {
		t.Fatalf("only %d turnovers", turns)
	}
}

func TestUnboundedChurnStorm(t *testing.T) {
	// Cap-8 rings under concurrent producers and consumers turn over
	// every few operations, so seals, appends, drains and recycling all
	// race. Every value must arrive exactly once, and each consumer must
	// take each producer's values in increasing order.
	const producers, consumers, per = 2, 2, 5000
	for name, mk := range makers() {
		for _, batch := range []int{1, 7} {
			mk, batch := mk, batch
			t.Run(fmt.Sprintf("%s/batch=%d", name, batch), func(t *testing.T) {
				q := mk(t, 8)
				var got atomic.Int64
				seen := make([]atomic.Int32, producers*per)
				expired := watchdog(t)
				var wg sync.WaitGroup
				for p := 0; p < producers; p++ {
					h, err := q.Handle()
					if err != nil {
						t.Fatal(err)
					}
					wg.Add(1)
					go func(p int, h *Handle[uint64]) {
						defer wg.Done()
						buf := make([]uint64, batch)
						for i := 0; i < per; i += batch {
							k := min(batch, per-i)
							for j := range buf[:k] {
								buf[j] = uint64(p)<<32 | uint64(i+j)
							}
							if batch == 1 {
								h.Enqueue(buf[0])
							} else {
								h.EnqueueBatch(buf[:k])
							}
						}
					}(p, h)
				}
				for c := 0; c < consumers; c++ {
					h, err := q.Handle()
					if err != nil {
						t.Fatal(err)
					}
					wg.Add(1)
					go func(h *Handle[uint64]) {
						defer wg.Done()
						last := make([]int64, producers)
						for i := range last {
							last[i] = -1
						}
						out := make([]uint64, batch)
						for got.Load() < producers*per && !expired.Load() {
							var n int
							if batch == 1 {
								var ok bool
								if out[0], ok = h.Dequeue(); ok {
									n = 1
								}
							} else {
								n = h.DequeueBatch(out)
							}
							if n == 0 {
								runtime.Gosched()
								continue
							}
							for _, v := range out[:n] {
								p, i := int(v>>32), int64(uint32(v))
								if i <= last[p] {
									t.Errorf("producer %d: value %d after %d", p, i, last[p])
									return
								}
								last[p] = i
								seen[p*per+int(i)].Add(1)
							}
							got.Add(int64(n))
						}
					}(h)
				}
				wg.Wait()
				failUndelivered(t, q, seen, expired)
				for i := range seen {
					if n := seen[i].Load(); n != 1 {
						t.Fatalf("value %d of producer %d delivered %d times", i%per, i/per, n)
					}
				}
			})
		}
	}
}

func TestScalarScratchReleased(t *testing.T) {
	// A scalar operation that misses the current ring passes its value
	// through the handle's one-element scratch; the scratch must not
	// keep the value alive afterwards.
	for _, kind := range ringcore.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			q, err := New[*int](kind, 4, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			h, _ := q.Handle()
			vals := make([]*int, 5)
			for i := range vals {
				vals[i] = new(int)
			}
			for _, v := range vals[:4] { // fills the first ring
				h.Enqueue(v)
			}
			first := q.tail.Load()
			h.Enqueue(vals[4])
			if q.tail.Load() == first {
				t.Fatal("fifth value did not roll over to a fresh ring")
			}
			if h.one[0] != nil {
				t.Fatal("scalar Enqueue's rollover left its value in the scratch")
			}
			for _, want := range vals {
				if v, ok := h.Dequeue(); !ok || v != want {
					t.Fatalf("got (%p,%v), want %p", v, ok, want)
				}
			}
			if q.head.Load() == first {
				t.Fatal("Dequeue did not advance past the drained ring")
			}
			if h.one[0] != nil {
				t.Fatal("scalar Dequeue's advance left its value in the scratch")
			}
		})
	}
}

// burstRingCap is the ring capacity of the burst benchmarks: small
// rings, so a burst spans many of them.
const burstRingCap = 64

// burstHandle returns the one handle of a fresh queue of
// burstRingCap-value wCQ rings.
func burstHandle(b *testing.B) *Handle[uint64] {
	q, err := New[uint64](ringcore.KindWCQ, burstRingCap, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	h, err := q.Handle()
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// BenchmarkBurstEnqueue buffers one burst spanning the given number of
// 64-value wCQ rings through one handle, and reports the cost per
// value: a handle's view upkeep must stay flat as the burst grows.
func BenchmarkBurstEnqueue(b *testing.B) {
	for _, rings := range []int{256, 1024, 4096, 16384} {
		b.Run(fmt.Sprintf("rings=%d", rings), func(b *testing.B) {
			n := rings * burstRingCap
			for b.Loop() {
				h := burstHandle(b)
				for i := range n {
					h.Enqueue(uint64(i))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
		})
	}
}

// BenchmarkBurstDrain buffers one burst spanning the given number of
// 64-value wCQ rings through one handle outside the timer, then times
// draining it through the same handle and reports the cost per value:
// every ring but the last is sealed, so this is the drain path.
func BenchmarkBurstDrain(b *testing.B) {
	for _, rings := range []int{256, 4096} {
		b.Run(fmt.Sprintf("rings=%d", rings), func(b *testing.B) {
			n := rings * burstRingCap
			for b.Loop() {
				b.StopTimer()
				h := burstHandle(b)
				for i := range n {
					h.Enqueue(uint64(i))
				}
				b.StartTimer()
				for range n {
					if _, ok := h.Dequeue(); !ok {
						b.Fatal("the burst lost a value")
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
		})
	}
}

// BenchmarkBurstPair is the burst_drain workload of the repository
// benchmark in miniature, on either variant's rings: two handles on
// two goroutines each fill one queue of 1024-slot rings with 32768
// values, meet, and drain it together. It reports the cost per value.
// Unlike the single-handle burst benchmarks, it shows what the two
// cores pay for cache lines they both write.
func BenchmarkBurstPair(b *testing.B) {
	const ringCap, per = 1024, 32768
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	for _, v := range []struct {
		name string
		kind ringcore.Kind
	}{{"UWCQ", ringcore.KindWCQ}, {"LSCQ", ringcore.KindSCQ}} {
		b.Run(v.name, func(b *testing.B) {
			q, err := New[uint64](v.kind, ringCap, 2, nil)
			if err != nil {
				b.Fatal(err)
			}
			var hs [2]*Handle[uint64]
			for i := range hs {
				if hs[i], err = q.Handle(); err != nil {
					b.Fatal(err)
				}
			}
			for b.Loop() {
				// arrived counts the goroutines at each meeting point;
				// they spin rather than park, so both fill and both
				// drain at once.
				var arrived, taken atomic.Int64
				meet := func(round int64) {
					arrived.Add(1)
					for arrived.Load() < round*int64(len(hs)) {
						runtime.Gosched()
					}
				}
				var done sync.WaitGroup
				done.Add(len(hs))
				for p, h := range hs {
					go func() {
						defer done.Done()
						meet(1)
						for i := range uint64(per) {
							h.Enqueue(uint64(p)<<32 | i)
						}
						meet(2)
						n := int64(0)
						for _, ok := h.Dequeue(); ok; _, ok = h.Dequeue() {
							n++
						}
						taken.Add(n)
					}()
				}
				done.Wait()
				if got := taken.Load(); got != int64(len(hs))*per {
					b.Fatalf("drained %d values, want %d", got, len(hs)*per)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(hs)*per), "ns/value")
		})
	}
}
