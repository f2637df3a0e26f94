// Tests of the deferred free-index ring: a queue builds fq on its
// first recycle, once, and never when its indices are not recycled
// through fq.
package ringcore

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// boundTo reports whether h's view of fq is bound to q's fq.
func boundTo[T any](h *QueueHandle[T], q *Queue[T]) bool {
	switch q.kind {
	case KindWCQ:
		return h.fq != nil && h.wfq != nil && h.fq == indexRing(h.wfq) && h.wfq.Ring() == q.wfq.Load()
	case KindSCQ:
		return h.fq != nil && h.fq == indexRing(q.sfq.Load())
	}
	return false
}

// mustQueueWith is mustQueue with opts.
func mustQueueWith(t *testing.T, kind Kind, capacity uint64, handles int, opts *Options) (*Queue[uint64], []*QueueHandle[uint64]) {
	t.Helper()
	q, err := New[uint64](kind, capacity, handles, opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := make([]*QueueHandle[uint64], handles)
	for i := range hs {
		if hs[i], err = q.Register(); err != nil {
			t.Fatal(err)
		}
	}
	return q, hs
}

// withFree returns the footprint q has once its fq is built: built
// here, as the first recycle would, on a queue of q's shape.
func withFree(t *testing.T, kind Kind, capacity uint64, maxThreads int) uint64 {
	t.Helper()
	q := mustNew(t, kind, capacity, maxThreads)
	bare := q.Footprint()
	q.buildFree()
	if q.freeRing() == nil || q.Footprint() <= bare {
		t.Fatalf("buildFree: fq built %v, footprint %d B from %d B", q.freeRing() != nil, q.Footprint(), bare)
	}
	return q.Footprint()
}

func TestNewAllocs(t *testing.T) {
	// New allocates the queue, aq (a wCQ ring is its header, entries
	// and records; an SCQ ring its header and entries), the kept-index
	// lines and the data array, and nothing more: fq's objects wait for
	// the first recycle.
	for _, tc := range []struct {
		kind Kind
		want float64
	}{{KindWCQ, 6}, {KindSCQ, 5}} {
		for _, capacity := range []uint64{64, 1024} {
			t.Run(fmt.Sprintf("%s/cap=%d", tc.kind, capacity), func(t *testing.T) {
				allocs := testing.AllocsPerRun(20, func() {
					if _, err := New[uint64](tc.kind, capacity, 2, nil); err != nil {
						t.Fatal(err)
					}
				})
				if allocs > tc.want {
					t.Fatalf("New makes %.0f allocations, want at most %.0f", allocs, tc.want)
				}
			})
		}
	}
}

func TestNewLeavesFreeUnbuilt(t *testing.T) {
	// A queue from New has no fq, and a registered handle binds none
	// before it uses one. The shared handle of the lock-free queue
	// (HandleAt with a negative id) is the exception: goroutines share
	// it, so HandleAt builds fq and binds it before any of them can,
	// and a second such handle binds the same ring.
	forEachKind(t, func(t *testing.T, kind Kind) {
		q, hs := mustQueue(t, kind, 16, 2)
		if q.freeRing() != nil {
			t.Fatal("New built fq")
		}
		for i, h := range hs {
			if h.fq != nil || h.wfq != nil {
				t.Fatalf("handle %d bound to an fq at registration", i)
			}
		}
		if kind != KindSCQ {
			return
		}
		bare := q.Footprint()
		s, err := q.HandleAt(-1)
		if err != nil {
			t.Fatal(err)
		}
		r := q.freeRing()
		if r == nil || !boundTo(s, q) {
			t.Fatal("HandleAt(-1) did not build and bind fq")
		}
		if q.Footprint() != bare+r.Footprint() {
			t.Fatalf("footprint %d B with fq, want %d B + %d B", q.Footprint(), bare, r.Footprint())
		}
		s2, err := q.HandleAt(-1)
		if err != nil {
			t.Fatal(err)
		}
		if q.freeRing() != r || !boundTo(s2, q) {
			t.Fatal("a second shared handle built another fq")
		}
	})
}

func TestDeferredFreeLifecycle(t *testing.T) {
	// A new queue has no fq. A lap that fills it from the fresh
	// counter, seals it and drains it never builds one, and
	// neither do empty polls or enqueues that find it full. A scalar
	// recycle whose index extends the recycler's run does not build
	// one either: the index goes onto the run. The first batch recycle,
	// or the first scalar one whose index does not extend the run,
	// builds fq, once: from then on every handle binds that ring and
	// the queue costs what a queue with fq built costs.
	const capacity = 16
	forEachKind(t, func(t *testing.T, kind Kind) {
		full := withFree(t, kind, capacity, 2)
		for _, batch := range []bool{false, true} {
			t.Run(fmt.Sprintf("batch=%v", batch), func(t *testing.T) {
				q, hs := mustQueue(t, kind, capacity, 2)
				p, c := hs[0], hs[1]
				bare := q.Footprint()
				if q.freeRing() != nil || bare >= full {
					t.Fatalf("new queue has fq %v, footprint %d B against %d B with fq", q.freeRing() != nil, bare, full)
				}
				unbuilt := func(when string) {
					t.Helper()
					if q.freeRing() != nil || q.Footprint() != bare {
						t.Fatalf("%s: fq built, footprint %d B, want %d B", when, q.Footprint(), bare)
					}
				}
				out := make([]uint64, capacity)
				if c.Dequeue(); c.DequeueBatch(out) != 0 {
					t.Fatal("empty queue gave a value")
				}
				unbuilt("empty polls")
				vs := make([]uint64, capacity+1)
				for i := range vs {
					vs[i] = uint64(i)
				}
				// One lap, filled, sealed and drained without
				// recycling, as a sealed ring of the unbounded
				// construction is.
				if batch {
					if n := p.EnqueueBatch(vs); n != capacity {
						t.Fatalf("EnqueueBatch filled %d of %d", n, capacity)
					}
					q.Seal()
					if n := c.DequeueBatch(out); n != capacity {
						t.Fatalf("sealed DequeueBatch took %d of %d", n, capacity)
					}
				} else {
					for _, v := range vs[:capacity] {
						if !p.Enqueue(v) {
							t.Fatalf("Enqueue %d failed", v)
						}
					}
					if p.Enqueue(capacity) {
						t.Fatal("full queue took a value")
					}
					q.Seal()
					for i := range out {
						var ok bool
						if out[i], ok = c.Dequeue(); !ok {
							t.Fatalf("sealed Dequeue %d found the queue empty", i)
						}
					}
				}
				unbuilt("a lap drained without recycling")
				if p.Enqueue(0) || p.EnqueueBatch(vs) != 0 {
					t.Fatal("a drained queue took a value: its indices were recycled")
				}
				unbuilt("enqueues on a drained lap")

				// A second queue recycles. p's first Enqueue claims
				// runLen fresh indices, uses index 0 and keeps 1.. as
				// its run, so p's values sit at indices 0..3 and its run
				// holds 4..runLen-1.
				q, hs = mustQueue(t, kind, capacity, 2)
				p, c = hs[0], hs[1]
				for v := range uint64(4) {
					if !p.Enqueue(v) {
						t.Fatal("Enqueue into an empty queue failed")
					}
				}
				unbuilt("four enqueues")
				if batch {
					// A batch recycle returns its indices to fq.
					if n := c.DequeueBatch(out[:3]); n != 3 {
						t.Fatalf("DequeueBatch = %d, want 3", n)
					}
					if !boundTo(c, q) || p.fq != nil {
						t.Fatal("the recycler is not bound to fq, or a handle that did not use fq is")
					}
				} else {
					// c's freed index 0 starts its run; p keeps index 1
					// in its slot, its last operation being an Enqueue;
					// p's freed index 2 does not extend p's run, which
					// ends at runLen-1, so it builds fq.
					if _, ok := c.Dequeue(); !ok {
						t.Fatal("Dequeue found the queue empty")
					}
					if got, want := c.slot.run.Load(), runWord(0, 1); got != want {
						t.Fatalf("consumer's run = %#x after its first recycle, want %#x", got, want)
					}
					unbuilt("a recycle onto the consumer's run")
					if _, ok := p.Dequeue(); !ok || p.slot.kept.Load() != 2 {
						t.Fatalf("Dequeue after an Enqueue did not keep index 1 (slot %d)", p.slot.kept.Load())
					}
					unbuilt("a kept index")
					if _, ok := p.Dequeue(); !ok {
						t.Fatal("Dequeue found the queue empty")
					}
					if !boundTo(p, q) || c.fq != nil {
						t.Fatal("the recycler is not bound to fq, or a handle that did not use fq is")
					}
				}
				r := q.freeRing()
				if r == nil || q.Footprint() != full {
					t.Fatalf("first recycle into fq: fq built %v, footprint %d B, want %d B", r != nil, q.Footprint(), full)
				}
				// Laps that recycle through fq, scalar and batch.
				for lap := range 4 {
					if n := p.EnqueueBatch(vs); n != capacity-1 {
						t.Fatalf("lap %d: EnqueueBatch filled %d, want %d", lap, n, capacity-1)
					}
					if n := c.DequeueBatch(out); n != capacity {
						t.Fatalf("lap %d: DequeueBatch took %d, want %d", lap, n, capacity)
					}
					for i := range capacity {
						if !p.Enqueue(uint64(i)) {
							t.Fatalf("lap %d: Enqueue %d failed", lap, i)
						}
					}
					for range capacity - 1 {
						if _, ok := p.Dequeue(); !ok {
							t.Fatalf("lap %d: Dequeue found the queue empty", lap)
						}
					}
				}
				if q.freeRing() != r || q.Footprint() != full {
					t.Fatal("a later recycle built another fq")
				}
				if !boundTo(p, q) || !boundTo(c, q) {
					t.Fatal("a handle is not bound to the one fq")
				}
			})
		}
	})
}

func TestDeferredFreeBuiltOnceUnderRace(t *testing.T) {
	// Four handles at patience 1, so wCQ takes its slow paths whenever
	// a step is contended, fill a queue without fq and then all start
	// recycling at once: each first DequeueBatch returns indices to fq
	// and may find it missing, so each may build one. Exactly one is
	// installed, every handle binds that one, and every value is
	// delivered exactly once.
	const handles, capacity, rounds, tries = 4, 64, 200, 20
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	opts := &Options{EnqPatience: 1, DeqPatience: 1}
	forEachKind(t, func(t *testing.T, kind Kind) {
		const fill = capacity / handles
		const per = fill + 4*rounds // values each handle enqueues
		for try := range tries {
			q, hs := mustQueueWith(t, kind, capacity, handles, opts)
			for g, h := range hs {
				for k := range fill {
					if !h.Enqueue(uint64(g*per + k)) {
						t.Fatalf("fill: Enqueue %d of handle %d failed", k, g)
					}
				}
			}
			if q.freeRing() != nil {
				t.Fatal("filling built fq")
			}
			seen := make([]atomic.Int32, handles*per)
			deadline := time.Now().Add(watchdog)
			var stuck atomic.Bool
			// retry runs op until it succeeds or the watchdog expires.
			retry := func(op func() bool) {
				for !op() {
					if time.Now().After(deadline) {
						stuck.Store(true)
						return
					}
					runtime.Gosched()
				}
			}
			var wg sync.WaitGroup
			start := make(chan struct{})
			for g, h := range hs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					buf := make([]uint64, 2)
					next := uint64(g*per + fill)
					enqueue := func() { retry(func() bool { return h.Enqueue(next) }); next++ }
					dequeue := func() {
						retry(func() bool {
							v, ok := h.Dequeue()
							if ok {
								seen[v].Add(1)
							}
							return ok
						})
					}
					<-start
					for range rounds {
						// A batch never keeps: both indices go to fq.
						got := 0
						retry(func() bool {
							n := h.DequeueBatch(buf[:2-got])
							for _, v := range buf[:n] {
								seen[v].Add(1)
							}
							got += n
							return got == 2
						})
						enqueue()
						enqueue()
						dequeue() // keeps its index: the last operation was an Enqueue
						dequeue() // returns its index to fq
						sent := 0
						vs := []uint64{next, next + 1}
						retry(func() bool {
							sent += h.EnqueueBatch(vs[sent:])
							return sent == 2
						})
						next += 2
					}
				}()
			}
			close(start)
			wg.Wait()
			if stuck.Load() {
				t.Fatalf("try %d: an operation spun past the watchdog", try)
			}
			r := q.freeRing()
			if r == nil {
				t.Fatalf("try %d: no fq after %d recycles", try, handles*rounds*3)
			}
			for g, h := range hs {
				if !boundTo(h, q) {
					t.Fatalf("try %d: handle %d is bound to another fq than the queue's", try, g)
				}
			}
			for v, ok := hs[0].Dequeue(); ok; v, ok = hs[0].Dequeue() {
				seen[v].Add(1)
			}
			for v := range seen {
				if n := seen[v].Load(); n != 1 {
					t.Fatalf("try %d: value %d delivered %d times", try, v, n)
				}
			}
			if q.freeRing() != r {
				t.Fatalf("try %d: fq replaced after it was installed", try)
			}
		}
	})
}

// watchdog bounds the retry loops of the concurrent tests, with room
// for -race: a lost value would otherwise spin until go test's own
// timeout.
const watchdog = 60 * time.Second

// BenchmarkFirstRecycle times the DequeueBatch that returns a queue's
// first recycled index to fq, on a 2^16-slot queue: with fq missing,
// so the call builds fq and binds the handle to it, and with fq built
// and bound before the timer starts. The difference is the one-time
// cost of the first recycle.
func BenchmarkFirstRecycle(b *testing.B) {
	for _, kind := range Kinds() {
		for _, built := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/cap=65536/built=%v", kind, built), func(b *testing.B) {
				out := make([]uint64, 1)
				for range b.N {
					b.StopTimer()
					q, err := New[uint64](kind, 1<<16, 2, nil)
					if err != nil {
						b.Fatal(err)
					}
					if built {
						q.buildFree()
					}
					h, err := q.Register() // binds a built fq
					if err != nil {
						b.Fatal(err)
					}
					h.Enqueue(1)
					b.StartTimer()
					if h.DequeueBatch(out) != 1 {
						b.Fatal("DequeueBatch found the queue empty")
					}
				}
			})
		}
	}
}
