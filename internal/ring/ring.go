// Package ring holds the slot-order arithmetic shared by the circular
// queues (SCQ, wCQ, LCRQ): power-of-two sizing, and Slot, the one map
// from a ring position to its entry. Slot is the Cache_Remap
// permutation of the SCQ/wCQ papers on rings that stay in cache, and
// spread, the data array's two-contender layout, on larger ones.
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

// unmap inverts Remap: it returns the logical position i whose slot is
// physical index j.
//
//wfq:noalloc
func unmap(j uint64, order uint) uint64 {
	if order <= EntriesPerLineShift {
		return j
	}
	low := order - EntriesPerLineShift
	return (j&(1<<EntriesPerLineShift-1))<<low | j>>EntriesPerLineShift
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

// Unslot inverts Slot: it returns the position i whose entry is index
// j, so a constructor can write a ring in memory order.
//
//wfq:noalloc
func Unslot(j uint64, order uint) uint64 {
	if order < SpreadOrder {
		return unmap(j, order)
	}
	return unspread(j)
}

// spread permutes the low four bits of i: within each aligned run of
// 16, the even positions take the first 8 entries and the odd ones the
// last 8, in order. Positions t and t+1 (what two contenders take one
// after the other) therefore sit on different 64-byte lines of 8-byte
// entries, while every aligned run of 16 fills exactly two lines.
//
//wfq:noalloc
func spread(i uint64) uint64 {
	return i&^15 | (i&1)<<EntriesPerLineShift | i>>1&7
}

// unspread inverts spread.
//
//wfq:noalloc
func unspread(j uint64) uint64 {
	return j&^15 | (j&7)<<1 | j>>EntriesPerLineShift&1
}

// Spread is spread for an n-entry array, n a power of two: the
// identity below one run of 16. It lays out the payload queue's data
// array, whose i-th never-used index names slot Spread(i, n).
//
//wfq:noalloc
func Spread(i, n uint64) uint64 {
	if n < 16 {
		return i
	}
	return spread(i)
}

// Seed writes the initial words of a ring of 1<<order entries into
// dst, in memory order: the entry of position i (entry Slot(i, order))
// gets base|i when i < limit and rest otherwise. base must have its low
// order bits clear (an entry whose index field is 0), so base|i ==
// base+i. Each line is eight plain stores, with no per-entry Unslot,
// compare or bounds check.
//
// Under Remap, positions l, l+s, ..., l+7s (s = 2^(order-3)) share line
// l, so word k of line l holds position k*s+l. Whether that position
// is below limit depends on l only through limit mod s, so the lines
// split into at most two runs with a fixed pattern each: an index word
// steps by 1 from one line to the next and a rest word by 0.
//
// Under spread, the two lines of the run at r hold r, r+2, ..., r+14
// and r+1, r+3, ..., r+15, so the runs below limit step by 16, the
// one run limit cuts is written entry by entry, and the rest is rest.
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
	if order >= SpreadOrder {
		full := min(limit, n) &^ 15
		seedRuns(dst[:full], base)
		if full < n {
			run := dst[full : full+16]
			for j := range run {
				if i := full + unspread(uint64(j)); i < limit {
					run[j] = base | i
				} else {
					run[j] = rest
				}
			}
			seedLines(dst[full+16:], 0, 0, 0, base, rest)
		}
		return
	}
	low := order - EntriesPerLineShift
	full, part := limit>>low, limit&(1<<low-1)
	// Lines below part hold full+1 index words, the rest full.
	seedLines(dst[:part<<EntriesPerLineShift], low, 0, full+1, base, rest)
	seedLines(dst[part<<EntriesPerLineShift:], low, part, full, base, rest)
}

// seedRuns writes whole runs of 16 entries under spread, every one an
// index word: the first run holds positions 0..15.
//
//wfq:noalloc
func seedRuns(dst []uint64, base uint64) {
	// The even line's words; each odd-line word is its even twin | 1.
	w0, w1, w2, w3, w4, w5, w6, w7 := base, base|2, base|4, base|6, base|8, base|10, base|12, base|14
	for ; len(dst) >= 16; dst = dst[16:] {
		r := (*[16]uint64)(dst)
		r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = w0, w1, w2, w3, w4, w5, w6, w7
		r[8], r[9], r[10], r[11] = w0|1, w1|1, w2|1, w3|1
		r[12], r[13], r[14], r[15] = w4|1, w5|1, w6|1, w7|1
		w0, w1, w2, w3 = w0+16, w1+16, w2+16, w3+16
		w4, w5, w6, w7 = w4+16, w5+16, w6+16, w7+16
	}
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
