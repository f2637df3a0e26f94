// Tests of the consumer's run: a scalar Dequeue that does not keep
// appends its freed index to its own run when the index extends it,
// and a stealer takes a run whole, keeping what it cannot use as its
// own run, so a one-producer, one-consumer queue recycles every index
// without fq and no index is ever lost or in two places.
package ringcore

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// wraps reports whether run word x holds indices on both sides of the
// last index, n-1.
func wraps(x, n uint64) bool {
	first, count := x>>32&(n-1), uint64(uint32(x))
	return first+count > n
}

func TestBatchProducerScalarConsumerSkipFQ(t *testing.T) {
	// A producer that enqueues batches of 16 and a consumer that
	// dequeues one value at a time run 8 laps of a 256-slot queue:
	// every freed index extends the consumer's run, and the producer
	// takes its own run first and then the consumer's whole, so the
	// indices reach aq in the order the consumer frees them. fq is
	// never built and the footprint stays where New left it, while
	// every value arrives exactly once, in order. In lockstep the
	// consumer's run is seen to cross from index n-1 to 0; run
	// concurrently, the two also race the consumer's appends against
	// the producer's Swaps.
	const capacity, batch, laps = 256, 16, 8
	const total = laps * capacity
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	forEachKind(t, func(t *testing.T, kind Kind) {
		for _, mode := range []string{"lockstep", "concurrent"} {
			t.Run(mode, func(t *testing.T) {
				q, hs := mustQueue(t, kind, capacity, 2)
				p, c := hs[0], hs[1]
				bare := q.Footprint()
				sent := uint64(0)
				send := func() {
					vs := make([]uint64, min(batch, total-sent))
					for i := range vs {
						vs[i] = sent + uint64(i)
					}
					sent += uint64(p.EnqueueBatch(vs))
				}
				next := uint64(0)
				recv := func() bool {
					v, ok := c.Dequeue()
					if ok && v != next {
						t.Errorf("Dequeue = %d, want %d", v, next)
					}
					if ok {
						next++
					}
					return ok
				}
				if mode == "lockstep" {
					crossed := false
					for next < total {
						for sent < total && sent-next+batch <= capacity {
							send()
						}
						for range 7 { // off the batches' 16-index grid
							if !recv() {
								break
							}
							crossed = crossed || wraps(c.slot.run.Load(), capacity)
						}
						if q.freeRing() != nil || q.Footprint() != bare {
							t.Fatalf("after %d values: fq built %v, footprint %d B, want %d B", next, q.freeRing() != nil, q.Footprint(), bare)
						}
					}
					if !crossed {
						t.Fatal("the consumer's run never crossed from index n-1 to 0")
					}
				} else {
					var wg sync.WaitGroup
					wg.Add(1)
					go func() {
						defer wg.Done()
						for sent < total {
							send()
							runtime.Gosched()
						}
					}()
					for next < total && !t.Failed() {
						if !recv() {
							runtime.Gosched()
						}
					}
					wg.Wait()
				}
				if _, ok := c.Dequeue(); ok || next != total {
					t.Fatalf("received %d values, want %d and then an empty queue", next, total)
				}
				if q.freeRing() != nil || q.Footprint() != bare {
					t.Fatalf("fq built %v, footprint %d B, want %d B", q.freeRing() != nil, q.Footprint(), bare)
				}
			})
		}
	})
}

// refill fills a drained queue through h, one scalar Enqueue at a time,
// and fails unless it takes exactly its capacity: an index lost to a
// steal, or held in two places, shows as a short or long count.
func refill(t *testing.T, q *Queue[uint64], h *QueueHandle[uint64]) {
	t.Helper()
	n := q.Cap()
	for i := range n {
		if !h.Enqueue(i) {
			t.Fatalf("drained queue took %d of %d values: an index was lost", i, n)
		}
	}
	if h.Enqueue(n) {
		t.Fatal("drained queue took more than its capacity: an index was in two places")
	}
	seen := make(map[uint64]bool, n)
	for range n {
		v, ok := h.Dequeue()
		if !ok || seen[v] {
			t.Fatalf("Dequeue = (%d, %v) from a full queue, seen before %v", v, ok, seen[v])
		}
		seen[v] = true
	}
}

func TestStealKeepsLeftover(t *testing.T) {
	// A batch fills a 32-slot queue from the fresh counter, and a
	// consumer's 20 Dequeues leave indices 0..19 in its run. A scalar
	// Enqueue then finds the counter exhausted and fq missing, and
	// steals the run whole: it uses index 0 and keeps 1..19 as its own
	// run, and never writes the consumer's. A handle without a slot
	// (SCQ's shared HandleAt(-1)) has no run, so it returns the 19 to
	// fq. Either way, once the queue is drained a fresh handle must
	// fill it with exactly its capacity.
	const capacity, freed = 32, 20
	forEachKind(t, func(t *testing.T, kind Kind) {
		stealers := []string{"slot"}
		if !kind.Census() {
			stealers = append(stealers, "shared")
		}
		for _, stealer := range stealers {
			t.Run(stealer, func(t *testing.T) {
				q, hs := mustQueue(t, kind, capacity, 3)
				p, c, fresh := hs[0], hs[1], hs[2]
				if p.EnqueueBatch(make([]uint64, capacity)) != capacity {
					t.Fatal("first lap did not fill the queue")
				}
				for range freed {
					if _, ok := c.Dequeue(); !ok {
						t.Fatal("full queue ran dry")
					}
				}
				if got, want := c.slot.run.Load(), runWord(0, freed); got != want || q.freeRing() != nil {
					t.Fatalf("consumer's run = %#x, want %#x; fq built %v", got, want, q.freeRing() != nil)
				}
				s := p
				if stealer == "shared" {
					var err error
					if s, err = q.HandleAt(-1); err != nil {
						t.Fatal(err)
					}
				}
				if !s.Enqueue(1) {
					t.Fatal("Enqueue did not steal the consumer's run")
				}
				if got := c.slot.run.Load(); got != 0 {
					t.Fatalf("consumer's run = %#x after the steal, want empty", got)
				}
				if stealer == "shared" {
					if q.freeRing() == nil {
						t.Fatal("the shared handle's leftover did not reach fq")
					}
					for id := range q.kept {
						if got := q.kept[id].run.Load(); got != 0 {
							t.Fatalf("id %d's run = %#x: the shared handle's leftover went to a run", id, got)
						}
					}
				} else if got, want := p.slot.run.Load(), runWord(1, freed-1); got != want || q.freeRing() != nil {
					t.Fatalf("stealer's run = %#x, want the leftover %#x; fq built %v", got, want, q.freeRing() != nil)
				}
				for _, ok := c.Dequeue(); ok; _, ok = c.Dequeue() {
				}
				refill(t, q, fresh)
			})
		}
	})
}

func TestRunAppendsRaceSteals(t *testing.T) {
	// Two pure consumers append every index they free to their runs
	// while three producers, scalar and batch, find the counter
	// exhausted and fq empty and steal those runs whole, keeping the
	// leftover as their own runs, which the others steal in turn:
	// appends race Swaps, and each owner's CAS retries at most once. No
	// value may be lost or delivered twice, and once they stop the
	// drained queue must take exactly its capacity again.
	const producers, consumers, per = 3, 2, 3000
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	forEachKind(t, func(t *testing.T, kind Kind) {
		for _, capacity := range []uint64{4, 32} {
			t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
				q, hs := mustQueue(t, kind, capacity, producers+consumers+1)
				seen := make([]atomic.Int32, producers*per)
				var wg sync.WaitGroup
				var received atomic.Int64
				for g, h := range hs[:producers] {
					wg.Add(1)
					go func() {
						defer wg.Done()
						vs := make([]uint64, 3)
						for i := 0; i < per; {
							if g == 0 {
								// Batches of up to 3.
								k := min(len(vs), per-i)
								for j := range k {
									vs[j] = uint64(g*per + i + j)
								}
								i += h.EnqueueBatch(vs[:k])
							} else if h.Enqueue(uint64(g*per + i)) {
								i++
							}
							runtime.Gosched()
						}
					}()
				}
				for _, h := range hs[producers : producers+consumers] {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for received.Load() < producers*per {
							if v, ok := h.Dequeue(); ok {
								seen[v].Add(1)
								received.Add(1)
							} else {
								runtime.Gosched()
							}
						}
					}()
				}
				wg.Wait()
				for v := range seen {
					if n := seen[v].Load(); n != 1 {
						t.Fatalf("value %d delivered %d times", v, n)
					}
				}
				refill(t, q, hs[producers+consumers])
			})
		}
	})
}

func TestNewRefusesCapacityPastRunWord(t *testing.T) {
	// A run word counts up to 2^32-1 indices, so New refuses a
	// capacity past maxCapacity before it allocates anything. wCQ's
	// own bound is lower; SCQ has none of its own.
	forEachKind(t, func(t *testing.T, kind Kind) {
		if _, err := New[uint64](kind, 2*maxCapacity, 2, nil); err == nil {
			t.Fatalf("New accepted capacity %d", uint64(2*maxCapacity))
		}
	})
}
