package scq

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/atomicx"
)

// storeBuilt builds the ring NewRing built before it wrote entries
// with plain stores: every entry through a sequentially consistent
// Store. It is the reference TestNewRingMatchesStores compares
// against.
func storeBuilt(t *testing.T, capacity uint64, mode atomicx.Mode) *Ring {
	t.Helper()
	q, err := newRing(capacity, mode)
	if err != nil {
		t.Fatal(err)
	}
	empty := q.pack(0, 1, q.bottom)
	for i := range q.entries {
		q.entries[i].Store(empty)
	}
	q.threshold.Store(-1)
	return q
}

func TestNewRingMatchesStores(t *testing.T) {
	for _, mode := range []atomicx.Mode{atomicx.NativeFAA, atomicx.EmulatedFAA, atomicx.CountingFAA} {
		for _, c := range []uint64{2, 4, 8, 1024, 1 << 16} {
			got, err := NewRing(c, mode)
			if err != nil {
				t.Fatal(err)
			}
			want := storeBuilt(t, c, mode)
			if got.head.Load() != want.head.Load() || got.tail.Load() != want.tail.Load() ||
				got.threshold.Load() != want.threshold.Load() {
				t.Fatalf("%v cap %d: head/tail/threshold %d/%d/%d, want %d/%d/%d", mode, c,
					got.head.Load(), got.tail.Load(), got.threshold.Load(),
					want.head.Load(), want.tail.Load(), want.threshold.Load())
			}
			if len(got.entries) != len(want.entries) {
				t.Fatalf("%v cap %d: %d entries, want %d", mode, c, len(got.entries), len(want.entries))
			}
			for i := range want.entries {
				if g, w := got.entries[i].Load(), want.entries[i].Load(); g != w {
					t.Fatalf("%v cap %d: entry %d = %#x, want %#x", mode, c, i, g, w)
				}
			}
		}
	}
}

// TestPublishedRingMPMC builds two rings on one goroutine, fills one
// with every index, and publishes both through a channel to two
// others, which move every index from one to the other concurrently.
// Under -race this checks that the constructor's plain writes are
// ordered before the workers' atomic accesses by the publication
// alone.
func TestPublishedRingMPMC(t *testing.T) {
	const capacity = 1024
	type rings struct{ fq, aq *Ring }
	pub := make(chan rings, 3)
	go func() {
		defer close(pub)
		fq, err := NewRing(capacity, atomicx.NativeFAA)
		if err != nil {
			t.Error(err)
			return
		}
		for i := range uint64(capacity) {
			fq.Enqueue(i)
		}
		aq, err := NewRing(capacity, atomicx.NativeFAA)
		if err != nil {
			t.Error(err)
			return
		}
		for range 3 {
			pub <- rings{fq, aq}
		}
	}()
	var moved [2][]uint64
	var wg sync.WaitGroup
	for w := range moved {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs, ok := <-pub
			if !ok {
				return
			}
			for {
				i, ok := rs.fq.Dequeue()
				if !ok {
					return
				}
				rs.aq.Enqueue(i)
				moved[w] = append(moved[w], i)
			}
		}()
	}
	wg.Wait()
	rs, ok := <-pub
	if !ok {
		t.FailNow()
	}
	var nMoved, nDrained [capacity]int
	for _, m := range moved {
		for _, i := range m {
			nMoved[i]++
		}
	}
	for {
		i, ok := rs.aq.Dequeue()
		if !ok {
			break
		}
		nDrained[i]++
	}
	for i := range nMoved {
		if nMoved[i] != 1 || nDrained[i] != 1 {
			t.Fatalf("index %d moved %d times and drained %d times, want once each", i, nMoved[i], nDrained[i])
		}
	}
}

func BenchmarkNewRing(b *testing.B) {
	for _, c := range []uint64{1024, 1 << 16} {
		b.Run(fmt.Sprintf("cap=%d", c), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := NewRing(c, atomicx.NativeFAA); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
