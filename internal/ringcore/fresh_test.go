// Tests of the fresh-index counter: a Queue hands out a ring's
// never-used indices from a counter and keeps fq for recycled ones,
// where the paper's Figure 2 starts with fq full of 0..n-1.
package ringcore

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/atomicx"
	"repro/internal/scq"
	"repro/internal/wcq"
)

// refQueue is the paper's Figure 2 queue as written there: fq starts
// full of 0..n-1 and every enqueue takes its index from fq. It is the
// reference the counter-backed Queue must match step for step when
// one goroutine drives both.
type refQueue struct {
	aq, fq indexRing
	data   []uint64
	buf    []uint64
}

func newRefQueue(t *testing.T, kind Kind, capacity uint64) *refQueue {
	t.Helper()
	r := &refQueue{data: make([]uint64, capacity), buf: make([]uint64, capacity)}
	switch kind {
	case KindWCQ:
		var hs [2]*wcq.Handle
		for i := range hs {
			ring, err := wcq.NewRing(capacity, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if hs[i], err = ring.Register(); err != nil {
				t.Fatal(err)
			}
		}
		r.aq, r.fq = hs[0], hs[1]
	case KindSCQ:
		var rs [2]*scq.Ring
		for i := range rs {
			ring, err := scq.NewRing(capacity, atomicx.NativeFAA)
			if err != nil {
				t.Fatal(err)
			}
			rs[i] = ring
		}
		r.aq, r.fq = rs[0], rs[1]
	}
	for i := range capacity {
		r.fq.Enqueue(i)
	}
	return r
}

func (r *refQueue) Enqueue(v uint64) bool {
	idx, ok := r.fq.Dequeue()
	if !ok {
		return false
	}
	r.data[idx] = v
	r.aq.Enqueue(idx)
	return true
}

func (r *refQueue) Dequeue() (uint64, bool) {
	idx, ok := r.aq.Dequeue()
	if !ok {
		return 0, false
	}
	v := r.data[idx]
	r.fq.Enqueue(idx)
	return v, true
}

func (r *refQueue) EnqueueBatch(vs []uint64) int {
	buf := r.buf[:min(len(vs), len(r.buf))]
	n := r.fq.DequeueBatch(buf)
	for j, idx := range buf[:n] {
		r.data[idx] = vs[j]
	}
	r.aq.EnqueueBatch(buf[:n])
	return n
}

func (r *refQueue) DequeueBatch(out []uint64) int {
	buf := r.buf[:min(len(out), len(r.buf))]
	n := r.aq.DequeueBatch(buf)
	for j, idx := range buf[:n] {
		out[j] = r.data[idx]
	}
	r.fq.EnqueueBatch(buf[:n])
	return n
}

func TestFreshMatchesPrefilledFQ(t *testing.T) {
	// One goroutine drives the Queue and the reference with the same
	// seeded mix of scalar and batch operations: every value and every
	// full/empty verdict must agree. Each sequence opens with a batch
	// that straddles the first-lap boundary: part of it comes from the
	// counter, the rest from indices already recycled into fq.
	forEachKind(t, func(t *testing.T, kind Kind) {
		for _, capacity := range []uint64{2, 4, 1024} {
			for seed := uint64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("cap=%d/seed=%d", capacity, seed), func(t *testing.T) {
					q := mustNew(t, kind, capacity, 1)
					h, err := q.Register()
					if err != nil {
						t.Fatal(err)
					}
					ref := newRefQueue(t, kind, capacity)
					next := uint64(0)
					batch := func(k int) []uint64 {
						vs := make([]uint64, k)
						for j := range vs {
							vs[j] = next
							next++
						}
						return vs
					}
					// step -1 is the opening sequence.
					enqueue := func(step int, vs []uint64) {
						t.Helper()
						if got, want := h.EnqueueBatch(vs), ref.EnqueueBatch(vs); got != want {
							t.Fatalf("step %d: EnqueueBatch(%d) = %d, reference %d", step, len(vs), got, want)
						}
					}
					dequeue := func(step, k int) {
						t.Helper()
						got, want := make([]uint64, k), make([]uint64, k)
						n, m := h.DequeueBatch(got), ref.DequeueBatch(want)
						if !slices.Equal(got[:n], want[:m]) {
							t.Fatalf("step %d: DequeueBatch(%d) = %v, reference %v", step, k, got[:n], want[:m])
						}
					}

					half := int(capacity / 2)
					for _, v := range batch(half) {
						if got, want := h.Enqueue(v), ref.Enqueue(v); got != want {
							t.Fatalf("opening Enqueue = %v, reference %v", got, want)
						}
					}
					dequeue(-1, half)
					enqueue(-1, batch(int(capacity)+1))

					// Batches average half the capacity, so even the
					// largest queue swings between full and empty many
					// times within its shorter run.
					steps := 1000
					if capacity > 64 {
						steps = 200
					}
					rng := rand.New(rand.NewPCG(seed, capacity))
					for step := range steps {
						switch rng.IntN(4) {
						case 0:
							v := batch(1)[0]
							if got, want := h.Enqueue(v), ref.Enqueue(v); got != want {
								t.Fatalf("step %d: Enqueue = %v, reference %v", step, got, want)
							}
						case 1:
							v, ok := h.Dequeue()
							w, wok := ref.Dequeue()
							if v != w || ok != wok {
								t.Fatalf("step %d: Dequeue = (%d,%v), reference (%d,%v)", step, v, ok, w, wok)
							}
						case 2:
							enqueue(step, batch(1+rng.IntN(int(capacity)+2)))
						case 3:
							dequeue(step, 1+rng.IntN(int(capacity)+2))
						}
					}
				})
			}
		}
	})
}

func TestFreshConcurrentFirstLap(t *testing.T) {
	// Producers race through a fresh queue's first lap and past it,
	// with scalar and batch enqueues, while consumers recycle indices
	// into fq: every value arrives exactly once, and each consumer sees
	// each producer's values in order. At capacity 32 a producer's
	// scalar Enqueue claims a run of fresh indices, which the other
	// producer's enqueues steal from once the counter runs out.
	const (
		producers = 2
		consumers = 2
		perProd   = 48
		rounds    = 60
		total     = producers * perProd
	)
	forEachKind(t, func(t *testing.T, kind Kind) {
		for round := range rounds {
			capacity := []uint64{2, 4, 2 * runLen}[round%3]
			q := mustNew(t, kind, capacity, producers+consumers)
			var wg sync.WaitGroup
			var consumed atomic.Int64
			seen := make([][]uint64, consumers)
			for p := range producers {
				h, err := q.Register()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(p uint64) {
					defer wg.Done()
					rng := rand.New(rand.NewPCG(uint64(round), p))
					for i := uint64(0); i < perProd; {
						k := min(uint64(1+rng.IntN(int(capacity)+1)), perProd-i)
						vs := make([]uint64, k)
						for j := range vs {
							vs[j] = p<<32 | (i + uint64(j))
						}
						var n int
						if k == 1 {
							if h.Enqueue(vs[0]) {
								n = 1
							}
						} else {
							n = h.EnqueueBatch(vs)
						}
						if n == 0 {
							runtime.Gosched()
						}
						i += uint64(n)
					}
				}(uint64(p))
			}
			for c := range consumers {
				h, err := q.Register()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					out := make([]uint64, capacity)
					for consumed.Load() < total {
						var n int
						if c == 0 {
							if v, ok := h.Dequeue(); ok {
								out[0], n = v, 1
							}
						} else {
							n = h.DequeueBatch(out)
						}
						if n == 0 {
							runtime.Gosched()
							continue
						}
						seen[c] = append(seen[c], out[:n]...)
						consumed.Add(int64(n))
					}
				}()
			}
			wg.Wait()
			count := make(map[uint64]int, total)
			for c, vs := range seen {
				last := map[uint64]uint64{}
				for _, v := range vs {
					p, seq := v>>32, v&0xffffffff
					if prev, ok := last[p]; ok && seq <= prev {
						t.Fatalf("cap %d: consumer %d took producer %d's %d after %d", capacity, c, p, seq, prev)
					}
					last[p] = seq
					count[v]++
				}
			}
			if len(count) != total {
				t.Fatalf("cap %d: %d distinct values, want %d", capacity, len(count), total)
			}
			for v, n := range count {
				if n != 1 {
					t.Fatalf("cap %d: value %#x delivered %d times", capacity, v, n)
				}
			}
		}
	})
}

func TestFreshSteadyStateNoWrite(t *testing.T) {
	// The counter is written only on the first lap: a batch claims its
	// whole run with one F&A, and a handle's scalar enqueues claim
	// runLen indices at once, so one handle's first lap of n scalar
	// enqueues adds ceil(n/runLen) to it. Once it has handed out every
	// index, scalar and batch enqueues read it and go to fq, adding
	// nothing to it.
	forEachKind(t, func(t *testing.T, kind Kind) {
		for _, capacity := range []int{8, 64, 1024} {
			t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
				q, h := countingQueue(t, kind, uint64(capacity))
				if n := h.EnqueueBatch(make([]uint64, capacity/2)); n != capacity/2 {
					t.Fatalf("first-lap EnqueueBatch = %d", n)
				}
				if got := q.fresh.Adds(); got != 1 {
					t.Fatalf("first-lap batch added to fresh %d times, want 1", got)
				}

				q, h = countingQueue(t, kind, uint64(capacity))
				for i := range capacity {
					if !h.Enqueue(uint64(i)) {
						t.Fatalf("first-lap Enqueue %d failed", i)
					}
				}
				lap := q.fresh.Adds()
				if want := (capacity + runLen - 1) / runLen; lap != int64(want) {
					t.Fatalf("first lap of %d Enqueues added to fresh %d times, want %d", capacity, lap, want)
				}
				if h.Enqueue(99) || h.EnqueueBatch(make([]uint64, 2)) != 0 {
					t.Fatal("enqueue into a full queue succeeded")
				}
				buf := make([]uint64, capacity)
				for range 50 {
					if _, ok := h.Dequeue(); !ok {
						t.Fatal("Dequeue on a non-empty queue failed")
					}
					if !h.Enqueue(1) {
						t.Fatal("Enqueue after a Dequeue failed")
					}
					if n := h.DequeueBatch(buf[:3]); n != 3 {
						t.Fatalf("DequeueBatch = %d, want 3", n)
					}
					if n := h.EnqueueBatch(buf[:3]); n != 3 {
						t.Fatalf("EnqueueBatch = %d, want 3", n)
					}
				}
				if got := q.fresh.Adds(); got != lap {
					t.Fatalf("steady state added to fresh %d times", got-lap)
				}
			})
		}
	})
}

// countingQueue builds a queue of kind whose fresh counter counts its
// F&As, with one registered handle.
func countingQueue(t *testing.T, kind Kind, capacity uint64) (*Queue[uint64], *QueueHandle[uint64]) {
	t.Helper()
	q, err := New[uint64](kind, capacity, 1, &Options{Mode: atomicx.CountingFAA})
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	return q, h
}

func BenchmarkNewQueue(b *testing.B) {
	for _, kind := range Kinds() {
		for _, c := range []uint64{1 << 10, 1 << 16} {
			b.Run(fmt.Sprintf("%s/cap=%d", kind, c), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := New[uint64](kind, c, 2, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
