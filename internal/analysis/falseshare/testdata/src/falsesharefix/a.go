// Package falsesharefix exercises the falseshare analyzer's
// //wfq:padded and //wfq:isolate checks, including layouts that only
// break on one architecture.
package falsesharefix

import "sync/atomic"

// line is correctly padded on both architectures.
//
//wfq:padded
type line struct {
	v atomic.Uint32
	_ [60]byte
}

// overPadded is the PR 1 pad.Bool bug class: a pad sized as if the
// payload were zero bytes.
//
//wfq:padded
type overPadded struct { // want "overPadded is 68 bytes on 386" "overPadded is 68 bytes on amd64"
	v atomic.Uint32
	_ [64]byte
}

// pointerPadded is 64 bytes on amd64 but only 60 on 386, because the
// pointer shrinks: exactly the divergence the dual-arch check exists
// for.
//
//wfq:padded
type pointerPadded struct { // want "pointerPadded is 60 bytes on 386"
	p atomic.Pointer[int]
	_ [56]byte
}

// shared places two hot counters on one cache line.
//
//wfq:isolate
type shared struct { // want "tail \\(offset 0\\) and head \\(offset 8\\) are 8 bytes apart on 386" "are 8 bytes apart on amd64"
	tail atomic.Uint64
	head atomic.Uint64
}

// isolated separates its counters with a full line of padding.
//
//wfq:isolate
type isolated struct {
	tail atomic.Uint64
	_    [64]byte
	head atomic.Uint64
	_    [64]byte
}

// coldStats shares a line between a hot counter and a diagnostics
// counter that is explicitly out of the hot set.
//
//wfq:isolate
type coldStats struct {
	tail  atomic.Uint64
	stats atomic.Uint64 //wfq:cold diagnostics only
	_     [48]byte
}

// hotPlain marks a frequently-written plain field hot, so sharing a
// line with the atomic fires.
//
//wfq:isolate
type hotPlain struct { // want "tail \\(offset 0\\) and cursor \\(offset 8\\)" "are 8 bytes apart on amd64" "cursor \\(offset 8\\) is 8 bytes from the struct's start on 386" "cursor \\(offset 8\\) is 8 bytes from the struct's start on amd64"
	tail   atomic.Uint64
	cursor uint64 //wfq:hot written every dequeue
}

// archShared keeps its counters a full line apart on amd64 but lets
// them collide on 386, where the uintptr spacer halves.
//
//wfq:isolate
type archShared struct { // want "are 40 bytes apart on 386"
	tail atomic.Uint64
	_    [7]uintptr
	head atomic.Uint64
}

// ownLine gives a goroutine's per-operation countdown a line of its
// own, away from the pointers before it and from whatever the
// allocator places after the struct. The two names of one //wfq:hot
// declaration are one unit.
//
//wfq:isolate
type ownLine struct {
	q, r      *int
	_         [64]byte
	next, tid int //wfq:hot
	_         [64]byte
}

// besidePointers pads against both neighbouring allocations but puts
// the countdown on the pointers' line.
//
//wfq:isolate
type besidePointers struct { // want "hot field next \\(offset 72\\) is 4 bytes from field r \\(offset 68\\) on 386" "hot field next \\(offset 80\\) is 8 bytes from field r \\(offset 72\\) on amd64"
	_         [64]byte
	q, r      *int
	next, tid int //wfq:hot
	_         [64]byte
}

// noTrailingPad leaves the countdown at the end of the struct, where
// the next allocation's first words can share its line.
//
//wfq:isolate
type noTrailingPad struct { // want "hot field next \\(offset 72\\) is 8 bytes from the struct's end on 386" "hot field next \\(offset 80\\) is 16 bytes from the struct's end on amd64"
	q, r      *int
	_         [64]byte
	next, tid int //wfq:hot
}

// twoDecls declares the countdown and the cursor separately, so they
// are two hot units and must sit a line apart.
//
//wfq:isolate
type twoDecls struct { // want "next \\(offset 64\\) and tid \\(offset 72\\) are 8 bytes apart on amd64" "next \\(offset 64\\) and tid \\(offset 68\\) are 4 bytes apart on 386" "next \\(offset 64\\) is 8 bytes from field tid \\(offset 72\\) on amd64" "tid \\(offset 72\\) is 8 bytes from field next \\(offset 64\\) on amd64" "next \\(offset 64\\) is 4 bytes from field tid \\(offset 68\\) on 386" "tid \\(offset 68\\) is 4 bytes from field next \\(offset 64\\) on 386"
	_    [64]byte
	next int //wfq:hot
	tid  int //wfq:hot
	_    [64]byte
}
