// Package hotallocfix exercises the hotalloc analyzer: every
// allocating construct must fire inside a //wfq:noalloc body, and the
// sanctioned patterns — struct literals by value, interface dispatch,
// //wfq:allocok helpers, panic subtrees, scratch-buffer reuse — must
// stay silent.
package hotallocfix

import (
	"sync/atomic"
	"time"
	"unsafe"
)

type entry struct {
	cycle uint64
	index uint64
}

type ring struct {
	word    atomic.Uint64
	scratch []uint64
	stats   map[string]int
	sink    any
}

// pack is a leaf helper on the hot path.
//
//wfq:noalloc
func pack(e entry) uint64 { return e.cycle<<32 | e.index }

// grow is the audited amortized-allocation helper: callable from
// noalloc paths, body exempt.
//
//wfq:allocok scratch grows to ring capacity once, then is reused
func (r *ring) grow(n int) []uint64 {
	if cap(r.scratch) < n {
		r.scratch = make([]uint64, n)
	}
	return r.scratch[:n]
}

// unvetted carries no annotation, so noalloc callers must not call it.
func unvetted() {}

// allocates exercises every flagged construct.
//
//wfq:noalloc
func (r *ring) allocates(s string, xs []uint64) uint64 {
	buf := make([]uint64, 8) // want "make allocates"
	p := new(entry)          // want "new allocates"
	xs = append(xs, 1)       // want "append may grow its backing array"
	e := &entry{cycle: 1}    // want "&composite literal escapes"
	sl := []uint64{1, 2}     // want "slice literal allocates"
	m := map[string]int{}    // want "map literal allocates"
	m["k"] = 1               // want "map write"
	delete(m, "k")           // want "map op"
	f := func() {}           // want "function literal \\(closure\\) allocates"
	go f()                   // want "go statement allocates a goroutine"
	b := []byte(s)           // want "string conversion copies"
	s2 := s + "!"            // want "non-constant string concatenation allocates"
	r.sink = entry{}         // want "boxed into"
	unvetted()               // want "calls hotallocfix.unvetted, which is not annotated"
	_ = buf
	_ = p
	_ = e
	_ = sl
	_ = b
	_ = s2
	return pack(entry{cycle: 1, index: uint64(len(xs))})
}

// fast is the shape of a real fast path: typed atomics, value struct
// literals, annotated helpers, scratch reuse, and a cold panic guard.
//
//wfq:noalloc
func (r *ring) fast(n int) uint64 {
	if n < 0 {
		panic("hotallocfix: negative batch of " + itoa(n)) // cold: subtree exempt
	}
	buf := r.grow(n)
	var acc uint64
	for i := range buf {
		buf[i] = pack(entry{cycle: uint64(i)})
		acc += r.word.Load()
	}
	return acc
}

// itoa is deliberately unannotated: it is only reachable from the
// panic subtree above, which is exempt.
func itoa(n int) string { return string(rune('0' + n%10)) }

// consumer dispatches through an interface, which is allowed: the
// concrete implementations carry their own annotations.
type consumer interface {
	Consume(v uint64) bool
}

//wfq:noalloc
func drain(c consumer, vs []uint64) int {
	kept := 0
	for _, v := range vs {
		if c.Consume(v) {
			kept++
		}
	}
	return kept
}

// external calls must stay inside the whitelist.
//
//wfq:noalloc
func whitelisted(p *atomic.Uint64) uint64 {
	return p.Add(1)
}

// timestamped is the metrics-instrumentation shape: time.Now and
// time.Since are individually whitelisted (the rest of package time is
// not), so a noalloc path can sample durations into a histogram.
//
//wfq:noalloc
func timestamped(p *atomic.Uint64) {
	t := time.Now()
	p.Add(uint64(time.Since(t)))
	time.Sleep(0)               // want "calls time.Sleep; package time is not on the allocation-free whitelist"
	p.Add(uint64(t.UnixNano())) // want "calls \\(time.Time\\).UnixNano; package time is not on the allocation-free whitelist"
}

// jittered is the jitter-draw shape: a xorshift step feeding a
// bounded draw, pure arithmetic end to end, so it vets
// allocation-free.
//
//wfq:noalloc
func jittered(state *uint64, base, span uint64) uint64 {
	x := *state
	if x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*state = x
	if span == 0 {
		return base
	}
	return base + x%(span+1)
}

// xferWaiter is the transfer-cell handoff shape: an untyped cell
// pointer published by a plain store ordered before an atomic state
// store, claimed by CAS, written through with a typed pointer
// conversion. Pure stores and atomics end to end — the direct-handoff
// fast path must vet allocation-free.
type xferWaiter struct {
	state atomic.Uint32
	cell  unsafe.Pointer
}

//wfq:noalloc
func (w *xferWaiter) arm(cell unsafe.Pointer) {
	w.cell = cell
	w.state.Store(1)
}

//wfq:noalloc
func publish(w *xferWaiter, v uint64) bool {
	if !w.state.CompareAndSwap(1, 2) {
		return false
	}
	*(*uint64)(w.cell) = v
	w.state.Store(3)
	return true
}

// leakyCell is the trap the fixture exists to catch: a cell allocated
// per handoff instead of living in the owner's handle defeats the
// zero-alloc fast path, and the analyzer must say so.
//
//wfq:noalloc
func leakyCell(w *xferWaiter) {
	c := new(uint64) // want "new allocates"
	w.arm(unsafe.Pointer(c))
}

// suppressed shows the escape hatch for an audited one-off.
//
//wfq:noalloc
func suppressed() *entry {
	return &entry{} //wfq:ignore hotalloc constructed once at registration
}
