package wfqueue

import (
	"runtime"
	"sync"
	"testing"
)

// TestSmokeAllVariantsConcurrent exercises Queue, Ring and
// LockFreeQueue side by side from concurrent goroutines — a single
// -race smoke covering every nonblocking public construction at once.
// Each worker pushes its values through all three structures and the
// test verifies global counts (no loss, no duplication per structure).
func TestSmokeAllVariantsConcurrent(t *testing.T) {
	const (
		workers = 6
		perW    = 2000
		cap     = 1 << 8
	)
	q, err := New[uint64](cap, workers+1) // +1 for the final drain handle
	if err != nil {
		t.Fatal(err)
	}
	ring, err := NewRing(cap, workers, false)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := NewLockFree[uint64](cap)
	if err != nil {
		t.Fatal(err)
	}

	counts := struct {
		mu                sync.Mutex
		wcq, ring, scq    map[uint64]int
		wcqN, ringN, scqN int
	}{wcq: map[uint64]int{}, ring: map[uint64]int{}, scq: map[uint64]int{}}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		h, err := q.Handle()
		if err != nil {
			t.Fatal(err)
		}
		rh, err := ring.Handle()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			local := struct {
				wcq, ring, scq map[uint64]int
			}{map[uint64]int{}, map[uint64]int{}, map[uint64]int{}}
			for i := 0; i < perW; i++ {
				v := w<<32 | uint64(i)
				for !h.Enqueue(v) {
					if got, ok := h.Dequeue(); ok {
						local.wcq[got]++
					}
					runtime.Gosched()
				}
				rh.Enqueue(uint64(i) % cap)
				for !lf.Enqueue(v) {
					if got, ok := lf.Dequeue(); ok {
						local.scq[got]++
					}
					runtime.Gosched()
				}
				// Drain roughly as fast as we fill.
				if got, ok := h.Dequeue(); ok {
					local.wcq[got]++
				}
				if got, ok := rh.Dequeue(); ok {
					local.ring[got]++
				}
				if got, ok := lf.Dequeue(); ok {
					local.scq[got]++
				}
			}
			counts.mu.Lock()
			defer counts.mu.Unlock()
			for v, n := range local.wcq {
				counts.wcq[v] += n
				counts.wcqN += n
			}
			for v, n := range local.ring {
				counts.ring[v] += n
				counts.ringN += n
			}
			for v, n := range local.scq {
				counts.scq[v] += n
				counts.scqN += n
			}
		}(uint64(w))
	}
	wg.Wait()

	// Drain the remainders single-threaded and verify exactly-once
	// delivery for the value-carrying queues.
	dh, err := q.Handle()
	if err != nil {
		t.Fatal(err)
	}
	for {
		v, ok := dh.Dequeue()
		if !ok {
			break
		}
		counts.wcq[v]++
		counts.wcqN++
	}
	for {
		v, ok := lf.Dequeue()
		if !ok {
			break
		}
		counts.scq[v]++
		counts.scqN++
	}

	total := workers * perW
	for name, c := range map[string]struct {
		m map[uint64]int
		n int
	}{
		"wCQ": {counts.wcq, counts.wcqN},
		"SCQ": {counts.scq, counts.scqN},
	} {
		if c.n != total {
			t.Errorf("%s: drained %d values, want %d", name, c.n, total)
		}
		for v, n := range c.m {
			if n != 1 {
				t.Errorf("%s: value %#x delivered %d times", name, v, n)
			}
		}
	}
}
