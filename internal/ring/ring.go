// Package ring holds the slot-order arithmetic shared by the circular
// queues (SCQ, wCQ, LCRQ): power-of-two sizing and the Cache_Remap
// permutation described in the SCQ/wCQ papers.
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

// Unmap inverts Remap: it returns the logical position i whose slot is
// physical index j, so a constructor can write a ring in memory order.
//
//wfq:noalloc
func Unmap(j uint64, order uint) uint64 {
	if order <= EntriesPerLineShift {
		return j
	}
	low := order - EntriesPerLineShift
	return (j&(1<<EntriesPerLineShift-1))<<low | j>>EntriesPerLineShift
}

// IsPow2 reports whether v is a power of two (v > 0).
//
//wfq:noalloc
func IsPow2(v uint64) bool {
	return v != 0 && v&(v-1) == 0
}
