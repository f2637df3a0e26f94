// Package wcq implements wCQ — the wait-free circular queue of
// Nikolaev & Ravindran (SPAA '22) — the primary contribution this
// repository reproduces.
//
// wCQ extends the lock-free SCQ ring with a helping-based slow path so
// that EVERY thread completes every operation in a bounded number of
// steps, while allocating no memory after construction (the paper's
// thesis: bounded memory is a precondition of true wait-freedom).
//
// # Word layout (the no-DWCAS substitution)
//
// The paper updates ring entries with double-width CAS over the pair
// {Note, Value{Cycle, IsSafe, Enq, Index}}. Go has no 128-bit CAS, so —
// following the reduced-width scheme the paper itself proposes for
// LL/SC architectures (§4) — we pack the entire pair into one 64-bit
// word (o = log2(2n), w = (62-o)/2 bits per cycle field):
//
//	bits [0, o)            Index   (⊥c = 0, ⊥ = 1, index i = i+2)
//	bit  o                 Pending (Enq inverted: the two-step insertion marker)
//	bit  o+1               Unsafe  (IsSafe inverted)
//	bits [o+2, o+2+w)      Value.Cycle  (truncated to w bits)
//	bits [o+2+w, o+2+2w)   Note         (a cycle, truncated to w bits)
//
// With IsSafe and Enq inverted, the zero word is the empty entry
// {Note 0, Cycle 0, IsSafe, Enq, ⊥c}: NewRing writes no entry. The
// paper's fresh entry holds ⊥. The reads that tell ⊥c from ⊥
// (tryEnqSlow, tryDeqSlow, Dequeue's gather) first require the entry's
// cycle to equal the ticket's, which a fresh entry's cycle 0 cannot
// before Head's first lap (cycle 1) has rewritten it. Everywhere else
// both read as free.
//
// A single-word CAS atomically covers both halves, which is strictly
// stronger than the paper's CAS2. The price is cycle truncation: a
// cycle field wraps every 2^(w+o) tickets of its ring. Capacity is
// capped so that w >= 16.
//
//	capacity   o    w   tickets to wrap
//	2          2   30   2^32
//	256        9   26   2^35
//	2^16      17   22   2^39
//	2^29      30   16   2^46
//
// So truncated cycles are ordered as serial numbers (RFC 1982): a comes
// before b when b-a, taken mod 2^w, is in (0, 2^(w-1)] (cycBefore,
// noteBefore). That order agrees with the untruncated one while the
// cycles an operation compares differ by less than 2^(w-1), half a
// window. It holds under one assumption: no thread stalls between its
// F&A and its entry CAS for 2^(w-1) cycles or more, which is 2^31
// tickets at capacity 2 and 2^38 at 2^16.
//
// The paper writes a Note only in the avert CAS, so an entry that is
// never averted keeps its initial Note 0 while its cycle moves on; half
// a window later serial order would read that Note as newer than every
// ticket, and turn every slow-path enqueuer away. So the CASes that
// move Value.Cycle up also raise a Note behind the new cycle to it
// (raisedNote). A Note equal to the cycle turns away no ticket the
// cycle test does not, so the raise changes no decision.
//
// The operations never split a word into these fields. They test and
// build whole words with masks (the words type): "Index is ⊥ or ⊥c" is
// w&idxMask <= ⊥, a consume is one atomic AND that clears Index and
// Pending, a cycle is compared in place against the ticket's
// cycle shifted to the same bits, and a CAS that keeps Note (or Value)
// keeps it by masking. So wCQ's fast path costs what SCQ's does, plus
// the Note and Enq bits it carries (Fig. 5) and the helping countdown
// of Fig. 6, which lives in the Handle because the paper's
// next_check/next_tid are thread-local.
//
// The global Head and Tail are {counter, phase2-pointer} pairs in the
// paper; we pack them as a 48-bit counter plus a 16-bit thread index
// (0 = null), exactly the substitution §4 recommends. The counter is
// not truncated, and it carries into the thread index after 2^48
// tickets: that is a ring's supported lifetime (about 326 days at 10 M
// tickets/s).
//
// Thread-local head/tail values carry two flag bits above the 48-bit
// counter: INC (increment in phase 1) and FIN (request finished).
package wcq

import (
	"fmt"

	"repro/internal/ring"
)

const (
	// cntBits is the width of the packed global Head/Tail counter.
	cntBits = 48
	// cntMask extracts the counter from a packed global word or a
	// thread-local head/tail value.
	cntMask = (uint64(1) << cntBits) - 1
	// flagINC marks a thread-local counter whose global increment is in
	// phase 1 (tentative).
	flagINC = uint64(1) << 62
	// flagFIN marks a finished help request; it stops all helpers.
	flagFIN = uint64(1) << 63
	// tidShift positions the thread-index (+1) in a global word.
	tidShift = cntBits
	// MaxThreads is the largest registrable thread census (the thread
	// index must fit in 16 bits, with 0 reserved for "null").
	MaxThreads = 1<<16 - 1
	// minCycleBits is the smallest tolerated cycle-field width.
	minCycleBits = 16
)

// packGlobal builds a global Head/Tail word from a counter and a
// phase2 thread index (tidp = tid+1; 0 means "no request").
//
//wfq:noalloc
func packGlobal(cnt, tidp uint64) uint64 { return tidp<<tidShift | cnt&cntMask }

// globalCnt extracts the counter component.
//
//wfq:noalloc
func globalCnt(w uint64) uint64 { return w & cntMask }

// globalTidp extracts the thread-index-plus-one component.
//
//wfq:noalloc
func globalTidp(w uint64) uint64 { return w >> tidShift }

// layout holds the per-ring bit-field geometry, computed once by
// newLayout.
type layout struct {
	order   uint   //wfq:stable log2(nSlots)
	nSlots  uint64 //wfq:stable 2n
	posMask uint64 //wfq:stable nSlots-1
	cycBits uint   //wfq:stable w
	words   words  //wfq:stable the entry word's field masks
}

// words holds the masks of an entry word's fields. The ring operations
// never split a word into its fields: each call copies words into a
// local once (three words, which the compiler keeps in registers), and
// tests and builds whole words through the methods below, which inline
// to a few masks, shifts and compares. A field kept across a transition
// is kept by masking, as the paper's CAS2 keeps it.
//
// Cycles are compared in place: cycleOf(c) puts a counter's truncated
// cycle where Value.Cycle sits in the word, so w&cycMask and cycleOf(c)
// subtract, and so order, as the cycles do.
type words struct {
	idxMask  uint64 // the Index field
	cycMask  uint64 // the Value.Cycle field
	noteMask uint64 // the Note field
}

// Index codes: ⊥c (consumed) is 0, ⊥ (empty this cycle) is bottom, and
// index i is i+idxBase.
const bottom, idxBase = 1, 2

func newLayout(capacity uint64) (layout, error) {
	if capacity < 2 || !ring.IsPow2(capacity) {
		return layout{}, fmt.Errorf("wcq: capacity %d must be a power of two >= 2", capacity)
	}
	nSlots := 2 * capacity
	order := ring.Order(nSlots)
	w := (62 - order) / 2
	if w < minCycleBits {
		return layout{}, fmt.Errorf("wcq: capacity %d too large (cycle field %d bits < %d)", capacity, w, minCycleBits)
	}
	cycMask := uint64(1)<<w - 1
	return layout{
		order:   order,
		nSlots:  nSlots,
		posMask: nSlots - 1,
		cycBits: w,
		words: words{
			idxMask:  nSlots - 1,
			cycMask:  cycMask << (order + 2),
			noteMask: cycMask << (order + 2 + w),
		},
	}, nil
}

// noteOf returns counter c's truncated cycle in the Note field's place.
//
//wfq:noalloc
func (l *layout) noteOf(c uint64) uint64 { return c << (2 + l.cycBits) & l.words.noteMask }

// pendingBit is the Pending bit (Enq inverted), just above Index.
//
//wfq:noalloc
func (m words) pendingBit() uint64 { return m.idxMask + 1 }

// unsafeBit is the Unsafe bit (IsSafe inverted), just above Pending.
//
//wfq:noalloc
func (m words) unsafeBit() uint64 { return (m.idxMask + 1) << 1 }

// cycleOf returns counter c's truncated cycle in Value.Cycle's place.
// c's cycle starts at bit o and Value.Cycle at bit o+2, so a shift by
// two moves it there; the mask truncates it to w bits and drops c's
// position bits.
//
//wfq:noalloc
func (m words) cycleOf(c uint64) uint64 { return c << 2 & m.cycMask }

// index returns the index w holds; w's Index must be neither ⊥ nor ⊥c.
//
//wfq:noalloc
func (m words) index(w uint64) uint64 { return w&m.idxMask - idxBase }

// isBottom reports whether w's Index is ⊥.
//
//wfq:noalloc
func (m words) isBottom(w uint64) bool { return w&m.idxMask == bottom }

// cycle returns w's Value.Cycle field, in place.
//
//wfq:noalloc
func (m words) cycle(w uint64) uint64 { return w & m.cycMask }

// note returns w's Note field, in place.
//
//wfq:noalloc
func (m words) note(w uint64) uint64 { return w & m.noteMask }

// free reports whether w's Index is ⊥ or ⊥c: no value sits in the
// entry.
//
//wfq:noalloc
func (m words) free(w uint64) bool { return w&m.idxMask <= bottom }

// safe reports w's IsSafe: its Unsafe bit is clear.
//
//wfq:noalloc
func (m words) safe(w uint64) bool { return w&m.unsafeBit() == 0 }

// cycBefore reports whether in-place cycle a comes before b in serial
// order (see the package comment): whether a-b, read as a w-bit two's
// complement number, is negative. The field's top bit of a-b is that
// sign bit.
//
//wfq:noalloc
func (m words) cycBefore(a, b uint64) bool { return (a-b)&(m.cycMask&^(m.cycMask>>1)) != 0 }

// noteBefore is cycBefore for in-place Notes.
//
//wfq:noalloc
func (m words) noteBefore(a, b uint64) bool { return (a-b)&(m.noteMask&^(m.noteMask>>1)) != 0 }

// raisedNote is w's Note, raised to cn (noteOf) when it comes before
// cn: the Note a CAS that moves Value.Cycle to cn's cycle leaves.
//
//wfq:noalloc
func (m words) raisedNote(w, cn uint64) uint64 {
	if n := w & m.noteMask; !m.noteBefore(n, cn) {
		return n
	}
	return cn
}

// enqueued is the word a fast-path enqueue of index at cycle cw
// (cycleOf; cn is the same cycle's noteOf) writes over w: Note raised
// to cn, Value := {cw, IsSafe, Enq, index}.
//
//wfq:noalloc
func (m words) enqueued(w, cw, cn, index uint64) uint64 {
	return m.raisedNote(w, cn) | cw | (index + idxBase)
}

// produced is the first of the slow path's two steps (Fig. 7): the
// same as enqueued but with Enq 0 (Pending set), which marks the entry
// as still tied to its help request.
//
//wfq:noalloc
func (m words) produced(w, cw, cn, index uint64) uint64 {
	return m.enqueued(w, cw, cn, index) | m.pendingBit()
}

// passed is the word a dequeuer at cycle cw (cn its noteOf) leaves in
// a free entry it could not consume: Note raised to cn, IsSafe kept,
// Cycle := cw, Enq set, Index := ⊥, so no enqueuer of an older cycle
// can fill it.
//
//wfq:noalloc
func (m words) passed(w, cw, cn uint64) uint64 {
	return m.raisedNote(w, cn) | w&m.unsafeBit() | cw | bottom
}

// unsafe is w with IsSafe cleared and everything else kept: a dequeuer
// passing an entry that holds an older cycle's value.
//
//wfq:noalloc
func (m words) unsafe(w uint64) uint64 { return w | m.unsafeBit() }

// averted is w with its Note replaced by nc (noteOf) and Value kept:
// the paper's "avert" CAS2, which keeps helpers of cycle nc and older
// out of the entry.
//
//wfq:noalloc
func (m words) averted(w, nc uint64) uint64 { return w&^m.noteMask | nc }

// consumeMask is what a consume ANDs in: it clears Index to ⊥c and
// Pending (Enq := 1), and keeps everything else.
//
//wfq:noalloc
func (m words) consumeMask() uint64 { return ^(m.idxMask | m.pendingBit()) }
