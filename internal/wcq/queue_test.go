// Payload-level checks over wCQ index rings. The payload layer lives in
// ringcore, which imports this package, so these tests sit in the
// external test package.
package wcq_test

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/ringcore"
)

func newWCQQueue[T any](t *testing.T, capacity uint64, maxThreads int, opts *ringcore.Options) ringcore.Core[T] {
	t.Helper()
	q, err := ringcore.New[T](ringcore.KindWCQ, capacity, maxThreads, opts)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func acquire[T any](t *testing.T, q ringcore.Core[T]) ringcore.Handle[T] {
	t.Helper()
	h, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestDataQueueSequential(t *testing.T) {
	h := acquire(t, newWCQQueue[string](t, 4, 2, nil))
	if _, ok := h.Dequeue(); ok {
		t.Fatal("empty queue returned a value")
	}
	for _, s := range []string{"a", "b", "c", "d"} {
		if !h.Enqueue(s) {
			t.Fatalf("enqueue %q failed", s)
		}
	}
	if h.Enqueue("x") {
		t.Fatal("enqueue beyond capacity succeeded")
	}
	for _, want := range []string{"a", "b", "c", "d"} {
		v, ok := h.Dequeue()
		if !ok || v != want {
			t.Fatalf("got (%q,%v), want %q", v, ok, want)
		}
	}
}

// TestQueueBatchWrap exercises the payload-level batches across many
// ring wraps single-threaded, where the fast path must always succeed
// and order must be exact.
func TestQueueBatchWrap(t *testing.T) {
	h := acquire(t, newWCQQueue[uint64](t, 64, 2, nil))
	next, expect := uint64(0), uint64(0)
	out := make([]uint64, 48)
	for round := 0; round < 50; round++ {
		in := make([]uint64, 48)
		for i := range in {
			in[i] = next
			next++
		}
		if n := h.EnqueueBatch(in); n != len(in) {
			t.Fatalf("round %d: EnqueueBatch = %d, want %d", round, n, len(in))
		}
		for got := 0; got < len(in); {
			n := h.DequeueBatch(out[:len(in)-got])
			for _, v := range out[:n] {
				if v != expect {
					t.Fatalf("round %d: got %d, want %d", round, v, expect)
				}
				expect++
			}
			got += n
		}
	}
}

// TestQueueBatchSlowpathDegrade forces patience-1 eager helping so
// batch fast-path failures degrade through the helped slow path, and
// verifies exactly-once + per-producer order under concurrency.
func TestQueueBatchSlowpathDegrade(t *testing.T) {
	const (
		producers   = 2
		consumers   = 2
		perProducer = 3000
		batch       = 16
		total       = producers * perProducer
	)
	q := newWCQQueue[uint64](t, 16, producers+consumers,
		&ringcore.Options{EnqPatience: 1, DeqPatience: 1, HelpDelay: 1})
	var wg, cg sync.WaitGroup
	var mu sync.Mutex
	seen := make(map[uint64]int)
	consumed := 0

	for p := 0; p < producers; p++ {
		h := acquire(t, q)
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
		h := acquire(t, q)
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
