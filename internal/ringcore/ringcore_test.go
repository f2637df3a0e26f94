// Contract test: the payload layer over both ring kinds (wCQ, SCQ)
// runs through one shared suite, so any behavioral drift between the
// kinds behind the Core/Handle contract fails here before a
// composition trips over it.
package ringcore

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/atomicx"
	"repro/internal/wcq"
)

// forEachKind runs the shared suite body once per registered kind.
func forEachKind(t *testing.T, body func(t *testing.T, kind Kind)) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) { body(t, kind) })
	}
}

func mustNew(t *testing.T, kind Kind, capacity uint64, maxThreads int) *Queue[uint64] {
	t.Helper()
	r, err := New[uint64](kind, capacity, maxThreads, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustAcquire(t *testing.T, c Core[uint64]) Handle[uint64] {
	t.Helper()
	h, err := c.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestKindNames(t *testing.T) {
	if KindWCQ.String() != "wCQ" || KindSCQ.String() != "SCQ" {
		t.Fatalf("kind names: %s, %s", KindWCQ, KindSCQ)
	}
	if !KindWCQ.Census() || KindSCQ.Census() {
		t.Fatal("census flags inverted")
	}
}

func TestContractConstruction(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind Kind) {
		if _, err := New[uint64](kind, 24, 4, nil); err == nil {
			t.Fatal("non-power-of-two capacity accepted")
		}
		r := mustNew(t, kind, 64, 2)
		if r.Cap() != 64 {
			t.Fatalf("Cap() = %d, want 64", r.Cap())
		}
		if r.Footprint() == 0 {
			t.Fatal("zero footprint")
		}
		// The kind shows in behaviour: only wCQ has a thread census.
		mustAcquire(t, r)
		mustAcquire(t, r)
		if _, err := r.Acquire(); (err == nil) != (kind == KindSCQ) {
			t.Fatalf("third Acquire with maxThreads 2: err = %v", err)
		}
	})
	if _, err := New[uint64](Kind(99), 64, 4, nil); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestContractScalarFIFO(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind Kind) {
		r, err := New[string](kind, 4, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		h, err := r.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := h.Dequeue(); ok {
			t.Fatal("empty queue returned a value")
		}
		in := []string{"a", "b", "c", "d"}
		for _, s := range in {
			if !h.Enqueue(s) {
				t.Fatalf("enqueue %q failed below capacity", s)
			}
		}
		if h.Enqueue("x") {
			t.Fatal("enqueue beyond capacity succeeded")
		}
		for _, want := range in {
			if v, ok := h.Dequeue(); !ok || v != want {
				t.Fatalf("got (%q,%v), want %q", v, ok, want)
			}
		}
		if _, ok := h.Dequeue(); ok {
			t.Fatal("phantom value after drain")
		}
	})
}

func TestContractBatch(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind Kind) {
		r := mustNew(t, kind, 8, 2)
		h := mustAcquire(t, r)
		in := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
		if n := h.EnqueueBatch(in); n != 8 {
			t.Fatalf("EnqueueBatch into capacity 8 = %d, want the fitting prefix 8", n)
		}
		out := make([]uint64, 16)
		got := 0
		for got < 8 {
			n := h.DequeueBatch(out[got:])
			if n == 0 {
				t.Fatalf("lost values: drained %d of 8", got)
			}
			got += n
		}
		for i := 0; i < 8; i++ {
			if out[i] != in[i] {
				t.Fatalf("out[%d] = %d, want %d (prefix property)", i, out[i], in[i])
			}
		}
		if n := h.DequeueBatch(out); n != 0 {
			t.Fatalf("empty core yielded %d values", n)
		}
		// Batches of 6 through 8 slots wrap the rings at a different
		// offset every round; single-threaded, every batch must succeed
		// whole and the order must be exact.
		next, expect := uint64(0), uint64(0)
		for round := 0; round < 50; round++ {
			batch := make([]uint64, 6)
			for i := range batch {
				batch[i] = next
				next++
			}
			if n := h.EnqueueBatch(batch); n != len(batch) {
				t.Fatalf("round %d: EnqueueBatch = %d, want %d", round, n, len(batch))
			}
			for got := 0; got < len(batch); {
				n := h.DequeueBatch(out[:len(batch)-got])
				if n == 0 {
					t.Fatalf("round %d: lost values", round)
				}
				for _, v := range out[:n] {
					if v != expect {
						t.Fatalf("round %d: got %d, want %d", round, v, expect)
					}
					expect++
				}
				got += n
			}
		}
	})
}

func TestContractReuseAfterDrain(t *testing.T) {
	// Rings have no lifecycle: Dequeue recycles every index it takes.
	// So a ring filled to capacity and drained, round after round, must
	// keep taking values in FIFO order, report full and empty at the
	// edges, and Empty must read true exactly when every value has been
	// taken.
	forEachKind(t, func(t *testing.T, kind Kind) {
		r := mustNew(t, kind, 8, 2)
		h := mustAcquire(t, r)
		for round := uint64(0); round < 200; round++ {
			if !r.Empty() {
				t.Fatalf("round %d: drained ring not Empty", round)
			}
			for i := uint64(0); i < 8; i++ {
				if !h.Enqueue(round*8 + i) {
					t.Fatalf("round %d: enqueue %d failed on a drained ring", round, i)
				}
			}
			if h.Enqueue(99) {
				t.Fatalf("round %d: enqueue beyond capacity succeeded", round)
			}
			if r.Empty() {
				t.Fatalf("round %d: full ring reported Empty", round)
			}
			for i := uint64(0); i < 8; i++ {
				if v, ok := h.Dequeue(); !ok || v != round*8+i {
					t.Fatalf("round %d: got (%d,%v), want %d", round, v, ok, round*8+i)
				}
			}
			if _, ok := h.Dequeue(); ok {
				t.Fatalf("round %d: empty not detected", round)
			}
		}
		if !r.Empty() {
			t.Fatal("drained ring not Empty")
		}
	})
}

func TestPayloadDrainDoesNotRecycle(t *testing.T) {
	// On a sealed queue Dequeue and DequeueBatch still hand out values
	// in FIFO order, but recycle no index: a queue sealed and drained
	// (the subtests Drain and DrainBatch) reports full, while an
	// unsealed one emptied by Dequeue takes a full load again.
	fill := func(t *testing.T, h *QueueHandle[uint64]) {
		t.Helper()
		for i := uint64(0); i < 4; i++ {
			if !h.Enqueue(i) {
				t.Fatalf("enqueue %d failed below capacity", i)
			}
		}
	}
	drains := map[string]func(h *QueueHandle[uint64]) []uint64{
		"Drain": func(h *QueueHandle[uint64]) []uint64 {
			var got []uint64
			for v, ok := h.Dequeue(); ok; v, ok = h.Dequeue() {
				got = append(got, v)
			}
			return got
		},
		"DrainBatch": func(h *QueueHandle[uint64]) []uint64 {
			out := make([]uint64, 8)
			return out[:h.DequeueBatch(out)]
		},
	}
	forEachKind(t, func(t *testing.T, kind Kind) {
		for name, drain := range drains {
			t.Run(name, func(t *testing.T) {
				q := mustNew(t, kind, 4, 1)
				h, err := q.Register()
				if err != nil {
					t.Fatal(err)
				}
				fill(t, h)
				q.Seal()
				got := drain(h)
				if len(got) != 4 {
					t.Fatalf("drained %d values, want 4", len(got))
				}
				for i, v := range got {
					if v != uint64(i) {
						t.Fatalf("drained %v, want FIFO order 0..3", got)
					}
				}
				if !q.Empty() {
					t.Fatal("drained queue not Empty")
				}
				if h.Enqueue(9) {
					t.Fatal("enqueue succeeded after a drain: an index was recycled")
				}
			})
		}
		t.Run("Dequeue", func(t *testing.T) {
			q := mustNew(t, kind, 4, 1)
			h, err := q.Register()
			if err != nil {
				t.Fatal(err)
			}
			fill(t, h)
			for i := uint64(0); i < 4; i++ {
				if v, ok := h.Dequeue(); !ok || v != i {
					t.Fatalf("got (%d,%v), want %d", v, ok, i)
				}
			}
			fill(t, h)
		})
	})
}

func TestContractCensus(t *testing.T) {
	// Acquire must honor the kind's census semantics: bounded for wCQ,
	// unlimited for SCQ.
	r := mustNew(t, KindWCQ, 8, 2)
	mustAcquire(t, r)
	mustAcquire(t, r)
	if _, err := r.Acquire(); err == nil {
		t.Fatal("wCQ census of 2 allowed a third handle")
	}
	s := mustNew(t, KindSCQ, 8, 1)
	for i := 0; i < 10; i++ {
		mustAcquire(t, s)
	}
}

func TestContractZeroAllocHotPaths(t *testing.T) {
	// The "allocates at most once after construction" claim, enforced
	// at the contract level for both adapters on the scalar AND batch
	// paths: the warmup grows the per-handle scratch and its
	// DequeueBatch builds fq, and nothing allocates after that.
	forEachKind(t, func(t *testing.T, kind Kind) {
		r := mustNew(t, kind, 64, 2)
		h := mustAcquire(t, r)
		in := make([]uint64, 16)
		out := make([]uint64, 16)
		if n := h.EnqueueBatch(in); n != 16 {
			t.Fatalf("warmup EnqueueBatch = %d", n)
		}
		if n := h.DequeueBatch(out); n != 16 {
			t.Fatalf("warmup DequeueBatch = %d", n)
		}
		allocs := testing.AllocsPerRun(200, func() {
			h.Enqueue(1)
			h.Dequeue()
			h.EnqueueBatch(in)
			h.DequeueBatch(out)
		})
		if allocs != 0 {
			t.Fatalf("hot paths allocate %.1f objects/op, want 0", allocs)
		}
	})
}

func TestContractEmulatedMode(t *testing.T) {
	// The Options plumbing reaches both cores: emulated F&A must stay
	// functionally identical.
	forEachKind(t, func(t *testing.T, kind Kind) {
		r, err := New[uint64](kind, 8, 2, &Options{Mode: atomicx.EmulatedFAA})
		if err != nil {
			t.Fatal(err)
		}
		h := mustAcquire(t, r)
		for i := uint64(0); i < 8; i++ {
			if !h.Enqueue(i) {
				t.Fatalf("emulated enqueue %d failed", i)
			}
		}
		for i := uint64(0); i < 8; i++ {
			if v, ok := h.Dequeue(); !ok || v != i {
				t.Fatalf("emulated got (%d,%v), want %d", v, ok, i)
			}
		}
	})
}

func TestContractFootprintConstant(t *testing.T) {
	// Bounded memory: the footprint rises once, when the first recycle
	// builds fq, to the bound of a queue with fq built, and no amount
	// of traffic changes it after that. An alternating handle recycles
	// through its kept index and never raises it.
	forEachKind(t, func(t *testing.T, kind Kind) {
		r := mustNew(t, kind, 64, 1)
		h := mustAcquire(t, r)
		f0 := r.Footprint()
		for i := uint64(0); i < 10000; i++ {
			h.Enqueue(i)
			h.Dequeue()
		}
		if f := r.Footprint(); f != f0 {
			t.Fatalf("alternating traffic changed the footprint: %d -> %d", f0, f)
		}
		full := withFree(t, kind, 64, 1)
		out := make([]uint64, 2)
		for i := uint64(0); i < 10000; i++ {
			h.Enqueue(i)
			h.Enqueue(i)
			h.DequeueBatch(out) // recycles both indices through fq
			if f := r.Footprint(); f != full {
				t.Fatalf("round %d: footprint %d B, want %d B with fq", i, f, full)
			}
		}
	})
}

// takes runs each of the four take paths once over a few values
// enqueued just before it, and calls check with the path's name and
// the values it took. The last two, Drain and DrainBatch, are Dequeue
// and DequeueBatch on the queue once h has sealed it.
func takes[T any](t *testing.T, h *QueueHandle[T], next func() T, check func(path string, got []T)) {
	t.Helper()
	put := func(k int) {
		t.Helper()
		vs := make([]T, k)
		for i := range vs {
			vs[i] = next()
		}
		if n := h.EnqueueBatch(vs); n != k {
			t.Fatalf("EnqueueBatch = %d, want %d", n, k)
		}
	}
	scalar := func(path string, take func() (T, bool), k int) {
		t.Helper()
		put(k)
		var got []T
		for range k {
			v, ok := take()
			if !ok {
				t.Fatalf("%s on a non-empty queue failed", path)
			}
			got = append(got, v)
		}
		check(path, got)
	}
	batch := func(path string, take func([]T) int, k int) {
		t.Helper()
		put(k)
		out := make([]T, k)
		if n := take(out); n != k {
			t.Fatalf("%s = %d, want %d", path, n, k)
		}
		check(path, out)
	}
	// Seventeen values first, so the takes cross from one run of 16
	// fresh indices to the next.
	scalar("Dequeue", h.Dequeue, 17)
	batch("DequeueBatch", h.DequeueBatch, 9)
	h.Queue().Seal()
	scalar("Drain", h.Dequeue, 5)
	batch("DrainBatch", h.DequeueBatch, 7)
}

// checkReleases fills and empties a 32-slot queue of T on every take
// path and fails if any data slot is left holding a value.
func checkReleases[T comparable](t *testing.T, kind Kind, mk func(i int) T) {
	t.Run(reflect.TypeFor[T]().String(), func(t *testing.T) {
		q, err := New[T](kind, 32, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		h, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		next := func() T { i++; return mk(i) }
		var zero T
		takes(t, h, next, func(path string, got []T) {
			for _, v := range got {
				if v == zero {
					t.Fatalf("%s returned a zero value", path)
				}
			}
			for s, v := range q.data {
				if v != zero {
					t.Fatalf("%s: payload slot %d retains %v after the take", path, s, v)
				}
			}
		})
	})
}

func TestContractReleasesReferences(t *testing.T) {
	// GC hygiene: a dequeued or drained payload slot of a type that
	// holds pointers must not keep its value reachable, on the scalar
	// and the batch paths alike.
	type tagged struct {
		n int
		p *int
	}
	forEachKind(t, func(t *testing.T, kind Kind) {
		checkReleases(t, kind, func(i int) *int { return &i })
		checkReleases(t, kind, func(i int) string { return fmt.Sprint("v", i) })
		checkReleases(t, kind, func(i int) tagged { return tagged{i, new(int)} })
		checkReleases(t, kind, func(i int) [2]*int { return [2]*int{new(int), &i} })
		checkReleases(t, kind, func(i int) any { return i })
	})
}

func TestContractMPMCValues(t *testing.T) {
	// Scalar MPMC: every value comes out exactly once.
	const (
		producers = 4
		consumers = 4
		perProd   = 10000
		total     = producers * perProd
	)
	forEachKind(t, func(t *testing.T, kind Kind) {
		r := mustNew(t, kind, 256, producers+consumers)
		var wg sync.WaitGroup
		out := make(chan uint64, total)
		for g := 0; g < producers; g++ {
			h := mustAcquire(t, r)
			wg.Add(1)
			go func(g uint64) {
				defer wg.Done()
				for i := uint64(0); i < perProd; i++ {
					for !h.Enqueue(g<<32 | i) {
						runtime.Gosched()
					}
				}
			}(uint64(g))
		}
		var mu sync.Mutex
		done := 0
		for g := 0; g < consumers; g++ {
			h := mustAcquire(t, r)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					finished := done >= total
					mu.Unlock()
					if finished {
						return
					}
					v, ok := h.Dequeue()
					if !ok {
						runtime.Gosched()
						continue
					}
					out <- v
					mu.Lock()
					done++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		close(out)
		seen := make(map[uint64]bool, total)
		for v := range out {
			if seen[v] {
				t.Fatalf("duplicate value %#x", v)
			}
			seen[v] = true
		}
		if len(seen) != total {
			t.Fatalf("got %d values, want %d", len(seen), total)
		}
	})
}

func TestContractBatchConcurrent(t *testing.T) {
	// Concurrent batches: exactly-once delivery and per-producer order.
	// Patience 1 with eager helping makes wCQ's batch fast path fail
	// often and degrade through the helped slow path (SCQ ignores the
	// wCQ tuning), and batches larger than the 16-slot ring exercise
	// the scratch clamp at ring capacity.
	const (
		producers   = 3
		consumers   = 3
		perProducer = 4000
		batch       = 24
		total       = producers * perProducer
	)
	forEachKind(t, func(t *testing.T, kind Kind) {
		r, err := New[uint64](kind, 16, producers+consumers,
			&Options{EnqPatience: 1, DeqPatience: 1, HelpDelay: 1})
		if err != nil {
			t.Fatal(err)
		}
		var wg, cg sync.WaitGroup
		var mu sync.Mutex
		seen := make(map[uint64]int, total)
		consumed := 0
		for p := 0; p < producers; p++ {
			h := mustAcquire(t, r)
			wg.Add(1)
			go func(p uint64) {
				defer wg.Done()
				buf := make([]uint64, 0, batch)
				for i := 0; i < perProducer; {
					buf = buf[:0]
					for j := i; j < perProducer && len(buf) < batch; j++ {
						buf = append(buf, p<<32|uint64(j))
					}
					for sent := 0; sent < len(buf); {
						n := h.EnqueueBatch(buf[sent:])
						sent += n
						if n == 0 {
							runtime.Gosched()
						}
					}
					i += len(buf)
				}
			}(uint64(p))
		}
		for c := 0; c < consumers; c++ {
			h := mustAcquire(t, r)
			cg.Add(1)
			go func() {
				defer cg.Done()
				out := make([]uint64, batch)
				last := map[uint64]uint64{}
				for {
					mu.Lock()
					done := consumed >= total
					mu.Unlock()
					if done {
						return
					}
					n := h.DequeueBatch(out)
					if n == 0 {
						runtime.Gosched()
						continue
					}
					mu.Lock()
					for _, v := range out[:n] {
						p, seq := v>>32, v&0xffffffff
						if prev, ok := last[p]; ok && seq <= prev {
							t.Errorf("producer %d: seq %d after %d", p, seq, prev)
						}
						last[p] = seq
						seen[v]++
						consumed++
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		cg.Wait()
		if len(seen) != total {
			t.Fatalf("saw %d distinct values, want %d", len(seen), total)
		}
		for v, n := range seen {
			if n != 1 {
				t.Fatalf("value %#x delivered %d times", v, n)
			}
		}
	})
}

func TestHandleAtRange(t *testing.T) {
	// HandleAt binds a chosen wCQ thread record, so an id outside
	// [0, maxThreads) is an error; SCQ has no records and ignores it.
	forEachKind(t, func(t *testing.T, kind Kind) {
		q := mustNew(t, kind, 8, 2)
		for _, id := range []int{0, 1} {
			if _, err := q.HandleAt(id); err != nil {
				t.Fatalf("HandleAt(%d): %v", id, err)
			}
		}
		for _, id := range []int{-1, 2} {
			if _, err := q.HandleAt(id); (err != nil) != kind.Census() {
				t.Fatalf("HandleAt(%d) on a census of 2: err %v", id, err)
			}
		}
	})
}

func TestRetargetAcrossRings(t *testing.T) {
	// One handle moves round-robin across three queues, buffering
	// values in each by scalar and batch calls, then drains them the
	// same way: every queue keeps its own values in FIFO order, the
	// handle keeps its id's record and its index scratch, and a move
	// allocates nothing.
	const rings, rounds, per = 3, 4, 3
	forEachKind(t, func(t *testing.T, kind Kind) {
		qs := make([]*Queue[uint64], rings)
		for i := range qs {
			qs[i] = mustNew(t, kind, 16, 4)
		}
		h, err := qs[0].HandleAt(3)
		if err != nil {
			t.Fatal(err)
		}
		h.EnqueueBatch(make([]uint64, per)) // grow the scratch
		h.DequeueBatch(make([]uint64, per))
		scratch := &h.idxBuf[0]
		vals := make([]uint64, per)
		for r := range rounds {
			for i, q := range qs {
				h.Retarget(q)
				for j := range vals {
					vals[j] = uint64(i)<<32 | uint64(r*per+j)
				}
				if r%2 == 0 {
					if n := h.EnqueueBatch(vals); n != per {
						t.Fatalf("ring %d: EnqueueBatch = %d, want %d", i, n, per)
					}
					continue
				}
				for _, v := range vals {
					if !h.Enqueue(v) {
						t.Fatalf("ring %d: full at %#x", i, v)
					}
				}
			}
		}
		out := make([]uint64, per)
		for r := range rounds {
			for i, q := range qs {
				h.Retarget(q)
				if h.Queue() != q {
					t.Fatalf("ring %d: handle still on another queue", i)
				}
				if kind == KindWCQ && h.aq.(*wcq.Handle).Ring() != q.aq {
					t.Fatalf("ring %d: aq handle not moved", i)
				}
				if r%2 == 0 {
					if n := h.DequeueBatch(out); n != per {
						t.Fatalf("ring %d: DequeueBatch = %d, want %d", i, n, per)
					}
				} else {
					for j := range out {
						var ok bool
						if out[j], ok = h.Dequeue(); !ok {
							t.Fatalf("ring %d: empty at round %d", i, r)
						}
					}
				}
				// Each drain above recycled into q's fq at least once.
				if kind == KindWCQ && (h.fq != indexRing(h.wfq) || h.wfq.Ring() != q.wfq.Load()) {
					t.Fatalf("ring %d: fq handle not moved", i)
				}
				for j, v := range out {
					if want := uint64(i)<<32 | uint64(r*per+j); v != want {
						t.Fatalf("ring %d: got %#x, want %#x", i, v, want)
					}
				}
			}
		}
		for i, q := range qs {
			if !q.Empty() {
				t.Fatalf("ring %d not empty after its drain", i)
			}
		}
		if &h.idxBuf[0] != scratch {
			t.Fatal("Retarget replaced the index scratch")
		}
		if allocs := testing.AllocsPerRun(100, func() {
			h.Retarget(qs[1])
			h.free(false)
			h.Retarget(qs[2])
			h.free(false)
		}); allocs != 0 {
			t.Fatalf("Retarget and the fq bind after it allocate %.1f objects", allocs)
		}
	})
}

func TestHandleAtSparseIDsForcedSlow(t *testing.T) {
	// Two goroutines on ids 0 and maxThreads-1, with the ids between
	// them never used, on a 2-slot queue with patience 1: wCQ's helped
	// slow path runs, and its help scans walk records no handle holds.
	// Each goroutine enqueues its own values and dequeues as it goes;
	// every value must arrive exactly once, and each goroutine must
	// see each producer's values in order. The goroutines only meet
	// mid-operation when they run in parallel.
	const maxThreads, per = 8, 20000
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	forEachKind(t, func(t *testing.T, kind Kind) {
		q, err := New[uint64](kind, 2, maxThreads,
			&Options{EnqPatience: 1, DeqPatience: 1, HelpDelay: 1})
		if err != nil {
			t.Fatal(err)
		}
		ids := []int{0, maxThreads - 1}
		got := make([][]uint64, len(ids))
		var wg sync.WaitGroup
		for g, id := range ids {
			h, err := q.HandleAt(id)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range uint64(per) {
					for !h.Enqueue(uint64(g)<<32 | i) {
						if v, ok := h.Dequeue(); ok {
							got[g] = append(got[g], v)
						}
					}
					if v, ok := h.Dequeue(); ok {
						got[g] = append(got[g], v)
					}
				}
			}(g)
		}
		wg.Wait()
		h, err := q.HandleAt(0)
		if err != nil {
			t.Fatal(err)
		}
		for v, ok := h.Dequeue(); ok; v, ok = h.Dequeue() {
			got[0] = append(got[0], v)
		}
		seen := make(map[uint64]bool, len(ids)*per)
		for g, vs := range got {
			next := make([]uint64, len(ids))
			for _, v := range vs {
				p, i := v>>32, v&0xffffffff
				if seen[v] {
					t.Fatalf("value %#x delivered twice", v)
				}
				seen[v] = true
				if i < next[p] {
					t.Fatalf("goroutine %d: producer %d's value %d after %d", g, p, i, next[p]-1)
				}
				next[p] = i + 1
			}
		}
		if len(seen) != len(ids)*per {
			t.Fatalf("delivered %d of %d values", len(seen), len(ids)*per)
		}
	})
}
