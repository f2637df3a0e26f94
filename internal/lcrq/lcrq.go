// Package lcrq implements LCRQ (Morrison & Afek, PPoPP '13): a linked
// list of CRQ ring buffers. CRQ rings use F&A on Head/Tail for
// scalability but are livelock-prone; when an enqueuer starves it
// CLOSES the ring and appends a fresh one to the outer Michael & Scott
// list. That closing behaviour is what makes LCRQ fast but memory
// hungry — the effect Fig. 10a of the wCQ paper shows.
//
// Porting note (no DWCAS in Go): CRQ updates each cell's
// (index, value) pair with CAS2. Here a cell is a single 64-bit word
// {safe:1 | occupied:1 | pending:1 | ticket:61} plus a side value
// array indexed by the cell position. An enqueuer first claims the
// cell with the PENDING bit set, then writes the value, then clears
// PENDING; a dequeuer holding the cell's ticket waits out PENDING
// before reading the value. Writing the value before the claim — the
// obvious ordering — is unsound: an enqueuer whose claim CAS is about
// to fail may have its value store land after the winner's, so the
// winner's cell would yield the loser's value (duplicating it, since
// the loser retries elsewhere) and lose the winner's. The paper
// itself presents LCRQ as x86-only (true CAS2); the emulated-F&A
// (PowerPC) figures omit LCRQ for the same reason.
package lcrq

import (
	"runtime"
	"sync/atomic"

	"repro/internal/atomicx"
	"repro/internal/pad"
	"repro/internal/ring"
)

// DefaultRingOrder gives 2^12-cell rings, the paper's default ("each
// ring buffer, for better performance, needs to have at least 2^12
// entries").
const DefaultRingOrder = 12

// starvationBound is how many failed enqueue F&A attempts a thread
// tolerates before closing the ring.
const starvationBound = 1 << 10

const (
	cellSafeBit = uint64(1) << 63
	cellOccBit  = uint64(1) << 62
	// cellPendingBit marks a claimed cell whose value is not yet
	// written (see the porting note above).
	cellPendingBit = uint64(1) << 61
	ticketMask     = cellPendingBit - 1
	closedBit      = uint64(1) << 63 // on the ring's Tail counter
)

// crq is one closable ring.
type crq struct {
	order   uint
	size    uint64
	posMask uint64

	_     pad.Line
	tail  atomic.Uint64 // ticket counter | closedBit
	_     pad.Line
	head  atomic.Uint64 // ticket counter
	_     pad.Line
	next  atomic.Pointer[crq]
	_     pad.Line
	cells []atomic.Uint64
	vals  []atomic.Uint64
}

// newCRQ returns an open, empty CRQ of 1<<order cells, written with
// plain stores before it is published.
func newCRQ(order uint) *crq {
	size := uint64(1) << order
	c := &crq{
		order:   order,
		size:    size,
		posMask: size - 1,
		cells:   make([]atomic.Uint64, size),
		vals:    make([]atomic.Uint64, size),
	}
	// Every cell unoccupied, safe, and carrying the first ticket that
	// maps to it: tickets reach cells through ring.Slot, so ticket i
	// first lands on cell ring.Slot(i, order), not cell i.
	cells := atomicx.Prepublish(c.cells)
	for i := range size {
		cells[ring.Slot(i, order)] = cellSafeBit | i
	}
	return c
}

// enqueue returns false when the ring is closed (caller appends a new
// ring).
func (c *crq) enqueue(v uint64) bool {
	tries := 0
	for {
		t := c.tail.Add(1) - 1
		if t&closedBit != 0 {
			return false
		}
		pos := ring.Slot(t&c.posMask, c.order)
		cell := &c.cells[pos]
		w := cell.Load()
		ticket := w & ticketMask
		if w&cellOccBit == 0 && ticket <= t &&
			(w&cellSafeBit != 0 || c.head.Load() <= t) {
			// Claim the cell first (PENDING), then publish the value.
			// Only the claim winner may touch vals[pos], so a loser
			// can never overwrite the winner's value.
			if cell.CompareAndSwap(w, cellSafeBit|cellOccBit|cellPendingBit|t) {
				c.vals[pos].Store(v)
				c.cells[pos].And(^cellPendingBit)
				return true
			}
		}
		// Starvation / overflow check: close the ring.
		h := c.head.Load()
		tries++
		if t-h >= c.size || tries > starvationBound {
			c.tail.Or(closedBit)
			return false
		}
	}
}

// dequeue returns ok=false when the ring is empty (the caller checks
// next for a successor ring).
func (c *crq) dequeue() (uint64, bool) {
	for {
		h := c.head.Add(1) - 1
		pos := ring.Slot(h&c.posMask, c.order)
		cell := &c.cells[pos]
		var w, ticket uint64
		for {
			w = cell.Load()
			ticket = w & ticketMask
			if w&cellOccBit != 0 {
				if ticket > h {
					// A future cycle's value: ticket h never produced
					// one. Leave the cell alone and run the empty test.
					break
				}
				if ticket == h {
					if w&cellPendingBit != 0 {
						// Claimed but the value is not written yet; the
						// claimant publishes it in a bounded number of
						// its own steps.
						runtime.Gosched()
						continue
					}
					// Our value: read it, then release the cell for
					// ticket h+size.
					v := c.vals[pos].Load()
					if cell.CompareAndSwap(w, w&cellSafeBit|(h+c.size)) {
						return v, true
					}
					continue
				}
				// An older enqueue lives here: mark unsafe so its
				// cycle's dequeuer skips it, then give up on the cell.
				if cell.CompareAndSwap(w, w&^cellSafeBit) {
					break
				}
				continue
			}
			// Empty cell: advance its ticket past us so a late
			// enqueuer of ticket h cannot use it.
			nt := ticket
			if nt < h+c.size {
				nt = h + c.size
			}
			if cell.CompareAndSwap(w, w&cellSafeBit|nt) {
				break
			}
		}
		// Nothing consumable at h: empty test.
		t := c.tail.Load() &^ closedBit
		if t <= h+1 {
			c.fixState()
			return 0, false
		}
	}
}

// fixState is CRQ's catchup: when dequeuers overrun enqueuers, pull
// Tail up to Head so both restart aligned.
func (c *crq) fixState() {
	for {
		h := c.head.Load()
		tw := c.tail.Load()
		if tw&closedBit != 0 || tw >= h {
			return
		}
		if c.tail.CompareAndSwap(tw, h) {
			return
		}
	}
}

// empty reports whether the ring holds no consumable entries.
func (c *crq) empty() bool {
	return c.head.Load() >= c.tail.Load()&^closedBit
}

// Queue is the full LCRQ: an MS-style list of crq rings.
type Queue struct {
	_     pad.Line
	head  atomic.Pointer[crq]
	_     pad.Line
	tail  atomic.Pointer[crq]
	_     pad.Line
	order uint
	// ringsAllocated counts rings ever created, the memory-growth
	// signal for Fig. 10a.
	ringsAllocated atomic.Int64
}

// New returns an empty LCRQ with rings of 2^order cells.
func New(order uint) *Queue {
	if order == 0 {
		order = DefaultRingOrder
	}
	q := &Queue{order: order}
	first := newCRQ(order)
	q.ringsAllocated.Store(1)
	q.head.Store(first)
	q.tail.Store(first)
	return q
}

// Enqueue appends v; it always succeeds (new rings are linked on
// demand — the unbounded-memory trade-off the wCQ paper criticizes).
func (q *Queue) Enqueue(v uint64) {
	for {
		tailRing := q.tail.Load()
		if next := tailRing.next.Load(); next != nil {
			q.tail.CompareAndSwap(tailRing, next)
			continue
		}
		if tailRing.enqueue(v) {
			return
		}
		// Ring closed: append a fresh ring seeded with v.
		nr := newCRQ(q.order)
		if !nr.enqueue(v) {
			panic("lcrq: fresh ring rejected enqueue")
		}
		if tailRing.next.CompareAndSwap(nil, nr) {
			q.ringsAllocated.Add(1)
			q.tail.CompareAndSwap(tailRing, nr)
			return
		}
	}
}

// Dequeue removes the oldest value; ok is false when the whole queue
// is empty.
func (q *Queue) Dequeue() (uint64, bool) {
	for {
		headRing := q.head.Load()
		if v, ok := headRing.dequeue(); ok {
			return v, true
		}
		// Ring drained: if no successor the queue is empty; otherwise
		// retire the ring and advance.
		if headRing.next.Load() == nil {
			return 0, false
		}
		if !headRing.empty() {
			continue // racing enqueuers refilled it
		}
		q.head.CompareAndSwap(headRing, headRing.next.Load())
	}
}

// RingsAllocated reports how many CRQ rings this queue ever created.
func (q *Queue) RingsAllocated() int64 { return q.ringsAllocated.Load() }

// FootprintPerRing returns the byte size of one ring, so harnesses can
// report allocated-memory growth.
func (q *Queue) FootprintPerRing() uint64 {
	return (uint64(1) << q.order) * 16
}
