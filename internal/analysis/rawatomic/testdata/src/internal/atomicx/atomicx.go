// Package atomicx stands in for the real internal/atomicx: the one
// package where raw sync/atomic functions are allowed, so nothing here
// may fire.
package atomicx

import (
	"sync/atomic"
	"unsafe"
)

// Add wraps the raw F&A the exemption exists for.
func Add(p *uint64, d uint64) uint64 {
	return atomic.AddUint64(p, d)
}

// Prepublish returns a plain view of words no other goroutine can
// reach yet.
func Prepublish(s []atomic.Uint64) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(&s[0])), len(s))
}

// fill uses the helper inside atomicx, which the rule exempts.
func fill(s []atomic.Uint64) {
	Prepublish(s)[0] = 1
}
