package wcq

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/atomicx"
	"repro/internal/ring"
)

// storeBuilt builds the ring the constructors built before they wrote
// entries with plain stores: every entry through a sequentially
// consistent Store, and for a full ring the index entries overwritten
// the same way, each built field by field by the layout_test.go
// oracle. It is the reference TestNewRingMatchesStores compares
// against.
func storeBuilt(t *testing.T, capacity uint64, opts *Options, full bool) *Ring {
	t.Helper()
	q, err := newRing(capacity, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	l := &q.lay
	w := l.pack(entry{safe: true, enq: true, index: l.oBottom()})
	for i := range q.entries {
		q.entries[i].Store(w)
	}
	q.threshold.Store(-1)
	if full {
		for i := uint64(0); i < capacity; i++ {
			q.entries[ring.Slot(i, l.order)].Store(l.pack(entry{note: 1, cycle: 1, safe: true, enq: true, index: i}))
		}
		q.tail.Store(l.nSlots + capacity)
		q.threshold.Store(q.thresh3)
	}
	return q
}

func TestNewRingMatchesStores(t *testing.T) {
	for _, mode := range []atomicx.Mode{atomicx.NativeFAA, atomicx.EmulatedFAA, atomicx.CountingFAA} {
		for _, c := range []uint64{2, 4, 8, 1024, 1 << 16} {
			opts := &Options{Mode: mode}
			for _, full := range []bool{false, true} {
				build := NewRing
				if full {
					build = NewFullRing
				}
				got, err := build(c, 1, opts)
				if err != nil {
					t.Fatal(err)
				}
				want := storeBuilt(t, c, opts, full)
				if got.head.Load() != want.head.Load() || got.tail.Load() != want.tail.Load() ||
					got.threshold.Load() != want.threshold.Load() {
					t.Fatalf("%v cap %d full %v: head/tail/threshold %d/%d/%d, want %d/%d/%d", mode, c, full,
						got.head.Load(), got.tail.Load(), got.threshold.Load(),
						want.head.Load(), want.tail.Load(), want.threshold.Load())
				}
				if len(got.entries) != len(want.entries) {
					t.Fatalf("%v cap %d full %v: %d entries, want %d", mode, c, full, len(got.entries), len(want.entries))
				}
				for i := range want.entries {
					if g, w := got.entries[i].Load(), want.entries[i].Load(); g != w {
						t.Fatalf("%v cap %d full %v: entry %d = %#x, want %#x", mode, c, full, i, g, w)
					}
				}
			}
		}
	}
}

// TestPublishedRingMPMC builds a free-index ring and an empty ring on
// one goroutine and publishes them through a channel to two others,
// which move every index from one to the other concurrently. Under
// -race this checks that the constructors' plain writes are ordered
// before the workers' atomic accesses by the publication alone.
func TestPublishedRingMPMC(t *testing.T) {
	const capacity = 1024
	type rings struct{ fq, aq *Ring }
	pub := make(chan rings, 3)
	go func() {
		defer close(pub)
		fq, err := NewFullRing(capacity, 3, nil)
		if err != nil {
			t.Error(err)
			return
		}
		aq, err := NewRing(capacity, 3, nil)
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
			fh, err := rs.fq.Register()
			if err != nil {
				t.Error(err)
				return
			}
			ah, err := rs.aq.Register()
			if err != nil {
				t.Error(err)
				return
			}
			for {
				i, ok := fh.Dequeue()
				if !ok {
					return
				}
				ah.Enqueue(i)
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
	ah, err := rs.aq.Register()
	if err != nil {
		t.Fatal(err)
	}
	for {
		i, ok := ah.Dequeue()
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
				if _, err := NewRing(c, 2, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkNewFullRing(b *testing.B) {
	for _, c := range []uint64{1024, 1 << 16} {
		b.Run(fmt.Sprintf("cap=%d", c), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := NewFullRing(c, 2, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
