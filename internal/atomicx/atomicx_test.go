package atomicx

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterAddReturnsOld(t *testing.T) {
	for _, mode := range []Mode{NativeFAA, EmulatedFAA} {
		var c Counter
		c.Init(mode, 10)
		if got := c.Add(1); got != 10 {
			t.Errorf("%v: Add returned %d, want 10 (old value)", mode, got)
		}
		if got := c.Load(); got != 11 {
			t.Errorf("%v: Load = %d, want 11", mode, got)
		}
	}
}

func TestCounterConcurrentAdd(t *testing.T) {
	const goroutines = 8
	const perG = 10000
	for _, mode := range []Mode{NativeFAA, EmulatedFAA} {
		var c Counter
		c.Init(mode, 0)
		seen := make([]map[uint64]bool, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			seen[g] = make(map[uint64]bool, perG)
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					seen[g][c.Add(1)] = true
				}
			}(g)
		}
		wg.Wait()
		if got := c.Load(); got != goroutines*perG {
			t.Fatalf("%v: final %d, want %d", mode, got, goroutines*perG)
		}
		// Every F&A ticket must be unique across goroutines.
		all := make(map[uint64]int)
		for g := range seen {
			for v := range seen[g] {
				all[v]++
			}
		}
		if len(all) != goroutines*perG {
			t.Fatalf("%v: %d unique tickets, want %d", mode, len(all), goroutines*perG)
		}
		for v, n := range all {
			if n != 1 {
				t.Fatalf("%v: ticket %d issued %d times", mode, v, n)
			}
		}
	}
}

func TestAnd(t *testing.T) {
	for _, mode := range []Mode{NativeFAA, EmulatedFAA, CountingFAA} {
		var w atomic.Uint64
		w.Store(0b0111)
		And(&w, ^uint64(0b0011), mode.Emulated())
		if got := w.Load(); got != 0b0100 {
			t.Errorf("%v: word = %#b, want 0b0100", mode, got)
		}
		// Idempotent when the bits are already clear (the emulated
		// loop's early exit).
		And(&w, ^uint64(0b0011), mode.Emulated())
		if got := w.Load(); got != 0b0100 {
			t.Errorf("%v: second And left %#b", mode, got)
		}
		// Goroutines clearing disjoint bits of one word at once each
		// leave theirs clear and every other bit as it was.
		const bits = 16
		w.Store(^uint64(0))
		var wg sync.WaitGroup
		for b := range bits {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 1000 {
					And(&w, ^(uint64(1) << b), mode.Emulated())
				}
			}()
		}
		wg.Wait()
		if got := w.Load(); got != ^uint64(1<<bits-1) {
			t.Errorf("%v: concurrent Ands left %#x", mode, got)
		}
	}
}

func TestFetchAdd(t *testing.T) {
	for _, mode := range []Mode{NativeFAA, EmulatedFAA} {
		// A Threshold-style decrement returns the old value.
		var th atomic.Int64
		if got := FetchAdd(&th, -1, mode.Emulated()); got != 0 || th.Load() != -1 {
			t.Errorf("%v: FetchAdd(0, -1) returned %d, left %d", mode, got, th.Load())
		}
		// Counter values above the int64 range survive the round trip.
		var c Counter
		c.Init(mode, 1<<63+5)
		if got := c.Add(2); got != 1<<63+5 || c.Load() != 1<<63+7 {
			t.Errorf("%v: Add returned %d, left %d", mode, got, c.Load())
		}
		if !c.CompareAndSwap(1<<63+7, 3) || c.Load() != 3 {
			t.Errorf("%v: CAS above the int64 range failed", mode)
		}
	}
}

func TestCounterCAS(t *testing.T) {
	var c Counter
	c.Init(NativeFAA, 5)
	if !c.CompareAndSwap(5, 9) {
		t.Fatal("CAS(5,9) failed")
	}
	if c.CompareAndSwap(5, 1) {
		t.Fatal("stale CAS succeeded")
	}
	if c.Load() != 9 {
		t.Fatalf("Load = %d, want 9", c.Load())
	}
}

func TestModeString(t *testing.T) {
	if NativeFAA.String() != "native-faa" || EmulatedFAA.String() != "emulated-faa" {
		t.Fatal("Mode.String mismatch")
	}
}
