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

// Seed writes the initial words of a ring of 1<<order slots into dst,
// in physical order: the slot of logical position i gets base|i when
// i < limit and rest otherwise. base must have its low order bits
// clear (an entry whose index field is 0), so base|i == base+i.
//
// Above one line, Remap puts positions l, l+s, ..., l+7s (s =
// 2^(order-3)) on line l, so word k of line l holds position k*s+l.
// Whether that position is below limit depends on l only through
// limit mod s, so the lines split into at most two runs with a fixed
// pattern each: an index word steps by 1 from one line to the next and
// a rest word by 0. Each line is then eight plain stores, with no
// per-slot Unmap, compare or bounds check.
//
//wfq:noalloc
func Seed(dst []uint64, order uint, base, limit, rest uint64) {
	n := uint64(1) << order
	dst = dst[:n]
	if order <= EntriesPerLineShift {
		for i := range dst {
			if uint64(i) < limit {
				dst[i] = base | uint64(i)
			} else {
				dst[i] = rest
			}
		}
		return
	}
	low := order - EntriesPerLineShift
	full, part := limit>>low, limit&(1<<low-1)
	// Lines below part hold full+1 index words, the rest full.
	seedLines(dst[:part<<EntriesPerLineShift], low, 0, full+1, base, rest)
	seedLines(dst[part<<EntriesPerLineShift:], low, part, full, base, rest)
}

// seedLines writes whole lines of a ring with 1<<low lines, the first
// being line line0: word k holds base|(k<<low + line) for k < used,
// rest otherwise.
//
//wfq:noalloc
func seedLines(dst []uint64, low uint, line0, used, base, rest uint64) {
	var w, d [1 << EntriesPerLineShift]uint64
	for k := range w {
		if uint64(k) < used {
			w[k], d[k] = base|uint64(k)<<low|line0, 1
		} else {
			w[k] = rest
		}
	}
	// Locals, not the arrays: the compiler keeps locals in registers
	// but would step array elements through memory.
	w0, w1, w2, w3, w4, w5, w6, w7 := w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]
	d0, d1, d2, d3, d4, d5, d6, d7 := d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]
	for ; len(dst) >= len(w); dst = dst[len(w):] {
		l := (*[1 << EntriesPerLineShift]uint64)(dst)
		l[0], l[1], l[2], l[3], l[4], l[5], l[6], l[7] = w0, w1, w2, w3, w4, w5, w6, w7
		w0, w1, w2, w3 = w0+d0, w1+d1, w2+d2, w3+d3
		w4, w5, w6, w7 = w4+d4, w5+d5, w6+d6, w7+d7
	}
}

// IsPow2 reports whether v is a power of two (v > 0).
//
//wfq:noalloc
func IsPow2(v uint64) bool {
	return v != 0 && v&(v-1) == 0
}
