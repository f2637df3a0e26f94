package lcrq

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ring"
)

func TestSequentialFIFO(t *testing.T) {
	q := New(4)
	if _, ok := q.Dequeue(); ok {
		t.Fatal("empty queue returned a value")
	}
	for i := uint64(0); i < 100; i++ {
		q.Enqueue(i)
	}
	for i := uint64(0); i < 100; i++ {
		v, ok := q.Dequeue()
		if !ok || v != i {
			t.Fatalf("got (%d,%v), want %d", v, ok, i)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("phantom value")
	}
}

func TestOverflowLinksNewRing(t *testing.T) {
	// 2^2-cell rings: the 5th element cannot fit, the ring closes and
	// a new one is linked.
	q := New(2)
	for i := uint64(0); i < 20; i++ {
		q.Enqueue(i)
	}
	if q.RingsAllocated() < 2 {
		t.Fatalf("no ring closure after overfilling: rings=%d", q.RingsAllocated())
	}
	for i := uint64(0); i < 20; i++ {
		v, ok := q.Dequeue()
		if !ok || v != i {
			t.Fatalf("got (%d,%v), want %d across ring boundary", v, ok, i)
		}
	}
}

func TestCloseOnStarvation(t *testing.T) {
	// Force the starvation path directly: a closed ring must reject
	// enqueues permanently, and the outer list must route around it.
	q := New(4)
	q.Enqueue(1)
	head := q.head.Load()
	head.tail.Or(closedBit) // simulate the starvation closure
	if head.enqueue(99) {
		t.Fatal("closed ring accepted an enqueue")
	}
	q.Enqueue(2) // must land in a fresh ring
	if q.RingsAllocated() != 2 {
		t.Fatalf("rings=%d, want 2", q.RingsAllocated())
	}
	if v, ok := q.Dequeue(); !ok || v != 1 {
		t.Fatalf("got (%d,%v), want 1", v, ok)
	}
	if v, ok := q.Dequeue(); !ok || v != 2 {
		t.Fatalf("got (%d,%v), want 2 from successor ring", v, ok)
	}
}

func TestFootprintGrowsWithRings(t *testing.T) {
	q := New(3)
	f0 := q.RingsAllocated()
	for i := uint64(0); i < 100; i++ {
		q.Enqueue(i) // never dequeue → overflow closures
	}
	if q.RingsAllocated() <= f0 {
		t.Fatal("rings did not grow")
	}
	if q.FootprintPerRing() != 8*16 {
		t.Fatalf("per-ring footprint %d", q.FootprintPerRing())
	}
}

func TestWrapAround(t *testing.T) {
	q := New(3) // 8 cells
	for round := 0; round < 200; round++ {
		for i := uint64(0); i < 5; i++ {
			q.Enqueue(uint64(round)*5 + i)
		}
		for i := uint64(0); i < 5; i++ {
			v, ok := q.Dequeue()
			if !ok || v != uint64(round)*5+i {
				t.Fatalf("round %d: got (%d,%v)", round, v, ok)
			}
		}
	}
	if q.RingsAllocated() != 1 {
		t.Fatalf("steady in-capacity cycling closed rings: %d", q.RingsAllocated())
	}
}

func TestConcurrentSmoke(t *testing.T) {
	// Exactly-once under concurrency is covered by the conformance
	// suite (internal/queues); this exercises ring turnover races.
	q := New(2)
	var wg sync.WaitGroup
	const per = 2000
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Enqueue(uint64(g*per + i))
				q.Dequeue()
			}
		}(g)
	}
	wg.Wait()
}

func TestNewCRQMatchesStores(t *testing.T) {
	// The constructor's plain writes must leave the cells the per-cell
	// Store loop it replaced left.
	for _, order := range []uint{1, 2, 3, 4, DefaultRingOrder, ring.SpreadOrder} {
		got := newCRQ(order)
		want := make([]atomic.Uint64, 1<<order)
		for i := range uint64(1) << order {
			want[ring.Slot(i, order)].Store(cellSafeBit | i)
		}
		for i := range want {
			if g, w := got.cells[i].Load(), want[i].Load(); g != w {
				t.Fatalf("order %d: cell %d = %#x, want %#x", order, i, g, w)
			}
		}
	}
}

func TestFreshCRQHoldsFullLap(t *testing.T) {
	// Every cell of a fresh CRQ must carry the ticket that first maps
	// to it, so the ring takes 2^order values before it closes. Seeding
	// cell p with ticket p instead closes it early once ring.Slot
	// permutes cells (order above ring.EntriesPerLineShift).
	for _, order := range []uint{4, 8, 12, ring.SpreadOrder} {
		c := newCRQ(order)
		for i := uint64(0); i < c.size; i++ {
			if !c.enqueue(i) {
				t.Fatalf("order %d: fresh ring closed at enqueue %d of %d", order, i, c.size)
			}
		}
		if c.tail.Load()&closedBit != 0 {
			t.Fatalf("order %d: ring closed after %d enqueues", order, c.size)
		}
		for i := uint64(0); i < c.size; i++ {
			if v, ok := c.dequeue(); !ok || v != i {
				t.Fatalf("order %d: dequeue %d = (%d, %v)", order, i, v, ok)
			}
		}
	}
}

func BenchmarkNewCRQ(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		newCRQ(DefaultRingOrder)
	}
}
