// Package pad provides cache-line padding primitives used to keep hot
// atomic words of the queue implementations on separate cache lines.
//
// All queues in this repository follow the paper's layout discipline:
// Head, Tail and Threshold each live on their own cache line, and ring
// entries are placed by internal/ring.Slot so that logically adjacent
// slots land on different lines.
package pad

import "sync/atomic"

// CacheLineSize is the assumed cache line (and padding) granularity in
// bytes. 64 is correct for x86-64 and most AArch64 parts; using a larger
// value would only waste a little memory, never break correctness.
const CacheLineSize = 64

// Line is an opaque pad occupying exactly one cache line.
//
//wfq:padded
type Line [CacheLineSize]byte

// Uint64 is an atomic uint64 padded to occupy a full cache line, so that
// two adjacent Uint64s never exhibit false sharing.
//
//wfq:padded
type Uint64 struct {
	V atomic.Uint64
	_ [CacheLineSize - 8]byte
}

// Int64 is an atomic int64 padded to a full cache line.
//
//wfq:padded
type Int64 struct {
	V atomic.Int64
	_ [CacheLineSize - 8]byte
}

// Bool is an atomic bool padded to a full cache line. atomic.Bool
// wraps a uint32, so the pad is CacheLineSize-4, not CacheLineSize-1.
//
//wfq:padded
type Bool struct {
	V atomic.Bool
	_ [CacheLineSize - 4]byte
}
