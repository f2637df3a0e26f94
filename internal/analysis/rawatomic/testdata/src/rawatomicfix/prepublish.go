package rawatomicfix

import (
	"sync/atomic"

	"internal/atomicx"
)

type ring struct {
	entries []atomic.Uint64
}

// NewRing is a constructor: it may write entries before publication.
func NewRing(n int) *ring {
	r := &ring{entries: make([]atomic.Uint64, n)}
	atomicx.Prepublish(r.entries)[0] = 1
	return r
}

// newFull is an unexported constructor, also allowed, even inside a
// closure it runs.
func newFull(n int) *ring {
	r := &ring{entries: make([]atomic.Uint64, n)}
	func() {
		for i, w := range atomicx.Prepublish(r.entries) {
			_ = i + int(w)
		}
	}()
	return r
}

// rebuild is not named like a constructor but is annotated as one.
//
//wfq:prepublish
func rebuild(n int) *ring {
	r := &ring{entries: make([]atomic.Uint64, n)}
	atomicx.Prepublish(r.entries)[0] = 2
	return r
}

// Enqueue is an operation on a published ring: plain writes here race
// with other goroutines' atomic loads.
func (r *ring) Enqueue(v uint64) {
	atomicx.Prepublish(r.entries)[0] = v // want "atomicx.Prepublish outside a constructor"
}

// A method value smuggled out of a non-constructor is caught too.
func view() func([]atomic.Uint64) []uint64 {
	return atomicx.Prepublish // want "atomicx.Prepublish outside a constructor"
}

// Package-level initializers are not constructors.
var global = atomicx.Prepublish(make([]atomic.Uint64, 1)) // want "atomicx.Prepublish outside a constructor"
