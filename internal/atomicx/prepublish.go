package atomicx

import (
	"sync/atomic"
	"unsafe"
)

// Plain is a plain (non-atomic) view of a []atomic.Uint64 that no
// other goroutine can reach yet. Writing through it costs a MOV per
// word instead of the XCHG a sequentially consistent Store compiles to
// on amd64.
type Plain []uint64

// Prepublish returns a plain view of s, which must not yet be
// reachable from any other goroutine. Every plain write through the
// view happens before any read by a goroutine that obtains s through a
// synchronizing operation afterwards — a channel send, a go statement,
// an atomic store or CAS (Go memory model) — so those readers may use
// the ordinary atomic API on s.
//
// Only constructors may call Prepublish: functions named New*/new*, or
// ones annotated //wfq:prepublish (wfqvet's rawatomic rule).
func Prepublish(s []atomic.Uint64) Plain {
	if len(s) == 0 {
		return nil
	}
	// atomic.Uint64 is a uint64 with zero-size guard fields: same size,
	// same layout.
	return unsafe.Slice((*uint64)(unsafe.Pointer(&s[0])), len(s))
}
