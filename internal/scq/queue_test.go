// Payload-level checks over SCQ index rings. The payload layer lives in
// ringcore, which imports this package, so these tests sit in the
// external test package.
package scq_test

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/ringcore"
)

func newSCQQueue[T any](t *testing.T, capacity uint64) ringcore.Handle[T] {
	t.Helper()
	q, err := ringcore.New[T](ringcore.KindSCQ, capacity, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestQueueSequential(t *testing.T) {
	h := newSCQQueue[string](t, 4)
	if _, ok := h.Dequeue(); ok {
		t.Fatal("empty queue returned a value")
	}
	for _, s := range []string{"a", "b", "c", "d"} {
		if !h.Enqueue(s) {
			t.Fatalf("enqueue %q failed", s)
		}
	}
	if h.Enqueue("overflow") {
		t.Fatal("enqueue beyond capacity succeeded")
	}
	for _, want := range []string{"a", "b", "c", "d"} {
		v, ok := h.Dequeue()
		if !ok || v != want {
			t.Fatalf("got (%q,%v), want %q", v, ok, want)
		}
	}
}

func TestQueueFullEmptyCycles(t *testing.T) {
	h := newSCQQueue[int](t, 8)
	for round := 0; round < 200; round++ {
		for i := 0; i < 8; i++ {
			if !h.Enqueue(round*8 + i) {
				t.Fatalf("round %d: premature full at %d", round, i)
			}
		}
		if h.Enqueue(-1) {
			t.Fatalf("round %d: full not detected", round)
		}
		for i := 0; i < 8; i++ {
			v, ok := h.Dequeue()
			if !ok || v != round*8+i {
				t.Fatalf("round %d: got (%d,%v), want %d", round, v, ok, round*8+i)
			}
		}
		if _, ok := h.Dequeue(); ok {
			t.Fatalf("round %d: empty not detected", round)
		}
	}
}

// TestQueueBatchConcurrent drives the payload-level batch ops (one
// per-goroutine handle each, carrying the zero-alloc scratch) under
// real concurrency: exactly-once delivery and per-producer order.
func TestQueueBatchConcurrent(t *testing.T) {
	const (
		producers   = 3
		consumers   = 3
		perProducer = 6000
		batch       = 24
		total       = producers * perProducer
	)
	q, err := ringcore.New[uint64](ringcore.KindSCQ, 256, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg, cg sync.WaitGroup
	var mu sync.Mutex
	seen := make(map[uint64]int)
	consumed := 0

	for p := 0; p < producers; p++ {
		h, err := q.Acquire()
		if err != nil {
			t.Fatal(err)
		}
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
		h, err := q.Acquire()
		if err != nil {
			t.Fatal(err)
		}
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
}
