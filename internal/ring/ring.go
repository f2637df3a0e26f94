// Package ring holds the slot-order arithmetic shared by the circular
// queues (SCQ, wCQ, LCRQ): power-of-two sizing, and Slot, the one map
// from a ring position to its entry. Slot is the Cache_Remap
// permutation of the SCQ/wCQ papers on rings that stay in cache, and
// spread, which keeps each aligned run of 16 positions on two lines,
// on larger ones.
//
// A ring with "order" o has 1<<o slots. Following the papers, a queue
// that stores up to n elements allocates 2n slots (order = log2(n)+1);
// the doubled capacity is what lets the Threshold scheme retain
// lock-freedom on a finite ring.
package ring

import "math/bits"

// EntriesPerLineShift is log2 of the number of 8-byte ring entries that
// fit into one 64-byte cache line.
const EntriesPerLineShift = 3

// Order returns the smallest o such that 1<<o >= v. Order(0) == 0.
//
//wfq:noalloc
func Order(v uint64) uint {
	if v <= 1 {
		return 0
	}
	return uint(64 - bits.LeadingZeros64(v-1))
}

// Remap implements Cache_Remap from the SCQ paper for a ring of 1<<order
// slots whose entries are 8 bytes wide: it permutes slot positions so
// that logically consecutive positions land on distinct cache lines, and
// a given cache line is not revisited for as long as possible.
//
// The permutation swaps the low (order-3) bits with the high 3 bits:
//
//	j = ((i mod 2^(order-3)) << 3) | (i >> (order-3))
//
// For tiny rings (order <= 3, i.e. at most one cache line) it is the
// identity. Remap is a bijection on [0, 2^order); see TestRemapBijection.
//
//wfq:noalloc
func Remap(i uint64, order uint) uint64 {
	if order <= EntriesPerLineShift {
		return i
	}
	low := order - EntriesPerLineShift
	mask := (uint64(1) << low) - 1
	return (i&mask)<<EntriesPerLineShift | i>>low
}

// SpreadOrder is the smallest ring order whose entries Slot places with
// spread rather than Remap: rings of 2^14 entries (128 KiB, the index
// rings of a capacity-2^13 queue) and up. BenchmarkRingLayout in
// internal/ringcore places the crossover; see ARCHITECTURE, "ring
// entry layout".
const SpreadOrder = 14

// Slot maps position i of a ring of 1<<order 8-byte entries to the
// index of its entry. It is the one such map every ring uses, and a
// bijection on [0, 2^order) at every order, so it decides only which
// cache line an entry sits on, never which entry a ticket reaches.
//
// Below SpreadOrder it is Remap: a ring that stays in cache gains
// from never revisiting a line for 2^(order-3) tickets. From
// SpreadOrder up it is spread: Remap would put a line's eight entries
// 2^(order-3) tickets apart, so on a large ring almost every access
// misses, while spread keeps each aligned run of 16 tickets on two
// lines, and still puts tickets t and t+1 on different ones.
//
//wfq:noalloc
func Slot(i uint64, order uint) uint64 {
	if order < SpreadOrder {
		return Remap(i, order)
	}
	return spread(i)
}

// spread permutes the low four bits of i: within each aligned run of
// 16, the even positions take the first 8 entries and the odd ones the
// last 8, in order. Positions t and t+1 therefore sit on different
// 64-byte lines of 8-byte entries, while every aligned run of 16 fills
// exactly two lines.
//
//wfq:noalloc
func spread(i uint64) uint64 {
	return i&^15 | (i&1)<<EntriesPerLineShift | i>>1&7
}

// IsPow2 reports whether v is a power of two (v > 0).
//
//wfq:noalloc
func IsPow2(v uint64) bool {
	return v != 0 && v&(v-1) == 0
}
