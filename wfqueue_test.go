package wfqueue

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestQueueBasics(t *testing.T) {
	q, err := New[string](8, 2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Handle()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Dequeue(); ok {
		t.Fatal("empty queue returned a value")
	}
	for _, s := range []string{"a", "b", "c"} {
		if !h.Enqueue(s) {
			t.Fatalf("enqueue %q failed", s)
		}
	}
	for _, want := range []string{"a", "b", "c"} {
		v, ok := h.Dequeue()
		if !ok || v != want {
			t.Fatalf("got (%q,%v), want %q", v, ok, want)
		}
	}
	if q.Cap() != 8 || q.Footprint() == 0 {
		t.Fatalf("Cap=%d Footprint=%d", q.Cap(), q.Footprint())
	}
}

func TestQueueFull(t *testing.T) {
	q, _ := New[int](4, 1)
	h, _ := q.Handle()
	for i := 0; i < 4; i++ {
		if !h.Enqueue(i) {
			t.Fatalf("full at %d", i)
		}
	}
	if h.Enqueue(4) {
		t.Fatal("enqueue beyond capacity succeeded")
	}
}

func TestHandleCensus(t *testing.T) {
	q, _ := New[int](4, 1)
	if _, err := q.Handle(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Handle(); err == nil {
		t.Fatal("census exceeded without error")
	}
}

func TestOptionsValidate(t *testing.T) {
	if _, err := New[int](3, 1); err == nil {
		t.Fatal("non-power-of-two capacity accepted")
	}
	if _, err := New[int](4, 0); err == nil {
		t.Fatal("zero maxThreads accepted")
	}
	// Options must be accepted and still yield a working queue.
	q, err := New[int](8, 2, WithEmulatedFAA(), WithPatience(1, 1), WithHelpDelay(1))
	if err != nil {
		t.Fatal(err)
	}
	h, _ := q.Handle()
	h.Enqueue(7)
	if v, ok := h.Dequeue(); !ok || v != 7 {
		t.Fatalf("got (%d,%v)", v, ok)
	}
}

func TestQueueConcurrent(t *testing.T) {
	const (
		producers = 3
		consumers = 3
		per       = 5000
	)
	q, _ := New[uint64](128, producers+consumers)
	var wg sync.WaitGroup
	var got atomic.Int64
	seen := make([]atomic.Int32, producers*per)
	for p := 0; p < producers; p++ {
		h, err := q.Handle()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(p int, h *Handle[uint64]) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v := uint64(p*per + i)
				for !h.Enqueue(v) {
					runtime.Gosched()
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
			for got.Load() < producers*per {
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
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("value %d delivered %d times", i, n)
		}
	}
}

func TestRingAsIndexPool(t *testing.T) {
	// The DPDK-style pattern: a full ring is a free-index allocator.
	pool, err := NewRing(16, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	h, err := pool.Handle()
	if err != nil {
		t.Fatal(err)
	}
	used := map[uint64]bool{}
	for i := 0; i < 16; i++ {
		idx, ok := h.Dequeue()
		if !ok {
			t.Fatalf("pool exhausted at %d", i)
		}
		if idx >= 16 || used[idx] {
			t.Fatalf("bad index %d", idx)
		}
		used[idx] = true
	}
	if _, ok := h.Dequeue(); ok {
		t.Fatal("over-allocation")
	}
	h.Enqueue(3) // free one
	idx, ok := h.Dequeue()
	if !ok || idx != 3 {
		t.Fatalf("recycled (%d,%v), want (3,true)", idx, ok)
	}
}

func TestLockFreeVariant(t *testing.T) {
	q, err := NewLockFree[int](8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if !q.Enqueue(i) {
			t.Fatalf("full at %d", i)
		}
	}
	if q.Enqueue(9) {
		t.Fatal("overflow accepted")
	}
	for i := 0; i < 8; i++ {
		v, ok := q.Dequeue()
		if !ok || v != i {
			t.Fatalf("got (%d,%v), want %d", v, ok, i)
		}
	}
	if q.Cap() != 8 {
		t.Fatal("cap")
	}
}

func TestLockFreeSharedHandleFirstOps(t *testing.T) {
	// Every goroutine runs a LockFreeQueue's handle-free methods on one
	// shared handle. Their first operations on a fresh queue race, and
	// the first Dequeue's recycle would build and bind the free-index
	// ring if NewLockFree had not: under -race, a handle that bound it
	// lazily would show as a data race here. Every value still
	// arrives exactly once, and the footprint is the one NewLockFree
	// reported.
	const goroutines, per, tries = 4, 8, 50
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	for try := range tries {
		q, err := NewLockFree[int](64)
		if err != nil {
			t.Fatal(err)
		}
		f0 := q.Footprint()
		seen := make([]atomic.Int32, goroutines*per)
		var stuck atomic.Bool
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for k := range per {
					if !q.Enqueue(g*per + k) {
						stuck.Store(true)
						return
					}
					v, ok := q.Dequeue()
					if !ok {
						stuck.Store(true)
						return
					}
					seen[v].Add(1)
				}
			}()
		}
		close(start)
		wg.Wait()
		if stuck.Load() {
			t.Fatalf("try %d: a queue of 64 with at most %d values in it reported full or empty", try, goroutines)
		}
		for v := range seen {
			if n := seen[v].Load(); n != 1 {
				t.Fatalf("try %d: value %d delivered %d times", try, v, n)
			}
		}
		if f := q.Footprint(); f != f0 {
			t.Fatalf("try %d: footprint %d B after the first recycles, %d B at construction", try, f, f0)
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	// The documented contract — capacity a power of two >= 2,
	// maxThreads >= 1 — must fail fast with a descriptive error at the
	// public boundary.
	bad := []struct {
		name     string
		capacity uint64
		threads  int
	}{
		{"zero capacity", 0, 2},
		{"capacity one", 1, 2},
		{"non-power-of-two capacity", 24, 2},
		{"zero threads", 8, 0},
		{"negative threads", 8, -3},
	}
	for _, c := range bad {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New[int](c.capacity, c.threads); err == nil {
				t.Errorf("New(%d, %d) accepted", c.capacity, c.threads)
			}
			if _, err := NewRing(c.capacity, c.threads, false); err == nil {
				t.Errorf("NewRing(%d, %d) accepted", c.capacity, c.threads)
			}
		})
	}
	if _, err := NewLockFree[int](24); err == nil {
		t.Error("NewLockFree(24) accepted a non-power-of-two capacity")
	}
	// Error text must name the violated constraint.
	_, err := New[int](24, 2)
	if err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Errorf("unhelpful error: %v", err)
	}
	_, err = New[int](8, 0)
	if err == nil || !strings.Contains(err.Error(), "maxThreads") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestGenericPayloads(t *testing.T) {
	type job struct {
		id   int
		name string
	}
	q, _ := New[*job](4, 1)
	h, _ := q.Handle()
	h.Enqueue(&job{id: 1, name: "x"})
	v, ok := h.Dequeue()
	if !ok || v.id != 1 || v.name != "x" {
		t.Fatalf("got %+v", v)
	}
}
