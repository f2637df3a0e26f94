package scq

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/atomicx"
)

// storeBuilt builds the reference TestNewRingMatchesStores compares
// NewRing against: every entry stored, through a sequentially
// consistent Store, as the package comment's table writes the empty
// slot at cycle 0: Cycle 0, Unsafe clear, Index ⊥c (code 0).
func storeBuilt(t *testing.T, capacity uint64, mode atomicx.Mode) *Ring {
	t.Helper()
	q, err := NewRing(capacity, mode)
	if err != nil {
		t.Fatal(err)
	}
	const empty = 0 // Cycle 0 (bits above o), Unsafe clear (bit o), Index ⊥c (code 0)
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

// TestNewRingIsZero: NewRing leaves every entry as make zeroed it and
// the Threshold at -1, at every capacity from 2 to 2^16; the ring
// reports empty, and a lap of values, enqueued and dequeued a half
// lap at a time, comes back in order, leaves every entry consumed
// (Index ⊥c, code 0) and the ring empty.
func TestNewRingIsZero(t *testing.T) {
	for c := uint64(2); c <= 1<<16; c <<= 1 {
		q, err := NewRing(c, atomicx.NativeFAA)
		if err != nil {
			t.Fatal(err)
		}
		for i := range q.entries {
			if w := q.entries[i].Load(); w != 0 {
				t.Fatalf("cap %d: entry %d = %#x, want 0", c, i, w)
			}
		}
		if th := q.threshold.Load(); th != -1 {
			t.Fatalf("cap %d: threshold %d, want -1", c, th)
		}
		if v, ok := q.Dequeue(); ok {
			t.Fatalf("cap %d: new ring dequeued %d", c, v)
		}
		for half := range uint64(2) {
			for i := range c {
				q.Enqueue(c - 1 - i ^ half)
			}
			for i := range c {
				if v, ok := q.Dequeue(); !ok || v != c-1-i^half {
					t.Fatalf("cap %d: dequeue %d of half lap %d = (%d, %v), want %d", c, i, half, v, ok, c-1-i^half)
				}
			}
		}
		for i := range q.entries {
			if w := q.entries[i].Load(); w&q.idxMask != 0 {
				t.Fatalf("cap %d: entry %d after the lap = %#x, want Index ⊥c", c, i, w)
			}
		}
		if v, ok := q.Dequeue(); ok {
			t.Fatalf("cap %d: drained ring dequeued %d", c, v)
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
