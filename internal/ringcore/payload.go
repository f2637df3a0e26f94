package ringcore

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"unsafe"

	"repro/internal/atomicx"
	"repro/internal/metrics"
	"repro/internal/pad"
	"repro/internal/scq"
	"repro/internal/wcq"
)

// indexRing is one goroutine's access to an index ring: a registered
// *wcq.Handle, or the census-free *scq.Ring itself.
type indexRing interface {
	Enqueue(uint64)
	Dequeue() (uint64, bool)
	EnqueueBatch([]uint64)
	DequeueBatch([]uint64) int
}

// wholeRing is the whole-ring surface the payload layer reads: what
// Footprint, Empty and Stats report. *wcq.Ring and *scq.Ring both
// provide it.
type wholeRing interface {
	Footprint() uint64
	Drained() bool
	Metrics() *metrics.Sink
}

// Compile-time checks: a signature drift in either core breaks the
// build here, not at a constructor.
var (
	_ indexRing = (*wcq.Handle)(nil)
	_ indexRing = (*scq.Ring)(nil)
	_ wholeRing = (*wcq.Ring)(nil)
	_ wholeRing = (*scq.Ring)(nil)
	_ Core[int] = (*Queue[int])(nil)
)

// Queue is a bounded MPMC queue of arbitrary values, built from two
// index rings and a data array via the paper's Figure 2 indirection:
// fq circulates free indices, aq circulates allocated ones. New
// allocates all memory but fq, which the first recycle builds. The
// ring kind decides progress: wait-free over wCQ rings (allocation
// aside), lock-free over SCQ rings. Only
// construction, HandleAt and Retarget know the kind; every ring
// operation goes through the indexRing a handle holds.
//
// The paper's fq starts full of 0..n-1. Here fq starts empty and the
// fresh counter hands out the indices no value has used yet, in
// order, so fq only ever holds recycled indices. An enqueue asks the
// counter first (claim) and fq only once the counter is exhausted, so
// a ring's first lap costs one F&A per index instead of a full fq
// dequeue. Counter value i is index i: it names data slot i, as an fq
// entry, a kept index or a run's value does.
//
// Each id below maxThreads has one kept-index slot, an atomic word
// that is 0 when empty and index+1 otherwise: a small per-handle cache
// in front of fq, as a slab allocator's per-CPU magazine or DPDK's
// per-lcore mempool cache sits in front of a shared pool. A scalar
// Dequeue whose handle's last scalar operation was an Enqueue parks
// its freed index in its own empty slot instead of fq, and the next
// Enqueue takes it back from there, so a handle that alternates the
// two never touches fq. Beside each slot is that id's run: a range
// of fresh-counter values its handle claimed runLen at a time and has
// not used yet (see takeRun), so a first-lap scalar Enqueue pays one
// F&A on the shared counter per runLen indices instead of one per
// index. Only the owner writes a non-empty run, and only over its own
// empty one; anyone takes from a run with a CAS.
//
// A scalar Enqueue looks for an index in the order own slot, own run,
// claim, fq, then one pass over every slot and run (steal). The slot
// comes first, as a magazine allocator asks its per-CPU cache before
// the shared pool, so an alternating handle recycles through its slot
// from its first operation on and never builds fq. The pass keeps an
// index a handle holds in reach of the others, so the queue still
// reports full only when every index is in aq or in the hands of an
// operation overlapping the call. The pass stops at ids,
// one past the highest id any handle has used on the queue, so it
// costs what the handles in use cost, not maxThreads, and Enqueue
// stays wait-free over wCQ rings: a run CAS fails only when another
// take or its owner's store succeeded, and at most n values ever pass
// through runs. Whatever the ring kind, an id's slot and run share
// one 64 B line of kept, which the queue allocates at construction:
// the index rings know nothing of them.
//
// fq only ever holds recycled indices, so a queue that never returns
// one to fq needs none: an alternating handle keeps its index, and a
// ring of the unbounded construction is mostly filled once and drained
// without recycling. fq stays nil until the first handle that returns
// an index to it builds one and publishes it with one CAS; a handle
// that loses the CAS drops its ring and uses the winner's, so handles
// that race their first recycle allocate one transient ring each, and
// Footprint counts only the one published. An operation that only
// takes from fq reads a missing one as empty, which it is: no index
// has been returned to it. Each handle binds its view of fq on first
// use (see free), except the shared handle (HandleAt with a negative
// id), which HandleAt binds.
//
// Every operation reads the header fields and none writes them: ids
// is written only when an id is first used on the queue (Register,
// HandleAt, Retarget), and fq once per queue. The pads keep them off
// any cache line that fresh or a neighbouring heap object writes.
type Queue[T any] struct {
	_    pad.Line
	aq   wholeRing
	data []T
	kind Kind
	// ids is Register's next id, and is raised to one past every id
	// HandleAt and Retarget bring: the steal pass's bound.
	ids  atomic.Int64
	refs bool // T holds pointers: a taken slot must be zeroed
	// kept holds the kept-index slot and run of each id below
	// min(maxThreads, wcq.MaxThreads), one line per id.
	kept []slotLine
	// wfq is fq for KindWCQ and sfq for KindSCQ; the other stays nil,
	// and so does the one of the kind until fq is built (buildFree).
	wfq   atomic.Pointer[wcq.Ring]
	sfq   atomic.Pointer[scq.Ring]
	_     pad.Line
	fresh atomicx.Counter
	_     pad.Line
}

// runLen is how many fresh indices a scalar Enqueue claims at once for
// a handle with a kept-index slot: it uses the first and keeps the
// rest as its run. A run word packs next*runLen + left, the next
// unused counter value and how many remain from it, 1..runLen-1; 0 is
// an empty run. Sweeping a per-handle stash of 4, 16 and 32 indices
// on burst_drain put 16 ahead (ARCHITECTURE, "Designs measured").
const runLen = 16

// slotLine is one id's kept-index slot and run, alone on a cache
// line.
//
//wfq:padded
type slotLine struct {
	kept atomic.Uint64
	run  atomic.Uint64
	_    [pad.CacheLineSize - 2*8]byte
}

// QueueHandle is a goroutine's capability to operate on a Queue. It
// must not be shared between goroutines, except an SCQ handle with a
// negative id (HandleAt(-1)), and then only for scalar operations.
//
//wfq:isolate
type QueueHandle[T any] struct {
	q  *Queue[T]
	aq indexRing
	// fq is the handle's view of q's fq, nil until free binds it: on
	// first use, and again after Retarget. wfq is a wCQ handle's
	// record in fq, kept across Retarget so a bind after the first
	// allocates nothing; it may still view a ring the handle left.
	fq  indexRing
	wfq *wcq.Handle
	// id names the handle's kept-index slot in every queue it
	// operates on; slot is that slot and its run in q, nil when id
	// has none.
	id   int
	slot *slotLine
	// idxBuf carries index runs between fq, the data array and aq in
	// the batch operations. It grows to the largest batch this handle
	// has seen and is then reused forever, so the steady-state batch
	// hot path allocates nothing.
	idxBuf []uint64
	_      pad.Line
	// enq records that the handle's last scalar operation was an
	// Enqueue: the gate on keeping. A pure receiver never keeps, so
	// its slot cannot bounce between it and a sender that steals.
	// Only a handle with a slot writes it, and on every operation, so
	// it has a line of its own, away from the fields above and from a
	// neighbouring handle.
	enq bool //wfq:hot
	_   pad.Line
}

// New builds an empty ring core of the given kind holding up to
// capacity values (a power of two >= 2). maxThreads bounds Acquire
// for census kinds (KindWCQ); census-free kinds accept any number of
// handles. Either kind gives each id below maxThreads a kept-index
// slot and a run, one 64 B line per id: the run serves any handle that
// enqueues, the slot one that also dequeues. New builds no fq: the
// first index returned to fq builds it (see Queue), so the footprint
// rises once, at that recycle, and a queue that never recycles into fq
// never pays for one.
func New[T any](kind Kind, capacity uint64, maxThreads int, opts *Options) (*Queue[T], error) {
	q := &Queue[T]{kind: kind}
	var o Options
	if opts != nil {
		o = *opts
	}
	switch kind {
	case KindWCQ:
		aq, err := wcq.NewRing(capacity, maxThreads, &o)
		if err != nil {
			return nil, err
		}
		q.aq = aq
	case KindSCQ:
		aq, err := scq.NewRing(capacity, o.Mode)
		if err != nil {
			return nil, err
		}
		aq.SetMetrics(o.Metrics)
		q.aq = aq
	default:
		return nil, fmt.Errorf("ringcore: unknown ring kind %d", int(kind))
	}
	q.kept = make([]slotLine, min(max(maxThreads, 0), wcq.MaxThreads))
	q.data = make([]T, capacity)
	q.refs = hasPointers(reflect.TypeFor[T]())
	q.fresh.Init(o.Mode, 0)
	return q, nil
}

// buildFree builds an empty fq like aq (NewEmpty: aq's capacity,
// census and options) and publishes it, unless another handle
// published one first: one CAS, whose loser drops its ring.
//
//wfq:allocok once per queue, plus one dropped ring per lost CAS
func (q *Queue[T]) buildFree() {
	switch aq := q.aq.(type) {
	case *wcq.Ring:
		q.wfq.CompareAndSwap(nil, aq.NewEmpty())
	case *scq.Ring:
		q.sfq.CompareAndSwap(nil, aq.NewEmpty())
	}
}

// hasPointers reports whether a value of type t holds a reference the
// garbage collector traces: a pointer, or a string, slice, map,
// channel, func or interface header, directly or inside an array or a
// struct. A slot of a type without one keeps nothing alive, so a take
// need not zero it.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}

// claim hands out up to k indices no value has used yet: first and
// the m-1 after it. m is 0 once the counter has handed out all n. The
// Load keeps the steady state from writing the counter's line: after
// the first lap it is one read of a word that no longer changes.
//
//wfq:noalloc
func (q *Queue[T]) claim(k uint64) (first, m uint64) {
	n := q.Cap()
	if q.fresh.Load() >= n {
		return 0, 0
	}
	if first = q.fresh.Add(k); first >= n {
		return 0, 0
	}
	return first, min(k, n-first)
}

// takeRun takes up to k values from run r: first and the m-1 after
// it, m 0 when r was empty. The owner and a stealer take alike, with a
// CAS; one that fails saw another take or the owner's store succeed,
// and retries on the word that left.
//
//wfq:noalloc
func takeRun(r *atomic.Uint64, k uint64) (first, m uint64) {
	for x := r.Load(); x != 0; x = r.Load() {
		first, left := x/runLen, x%runLen
		m = min(k, left)
		y := x + m*(runLen-1) // first+m next, left-m remaining
		if m == left {
			y = 0
		}
		if r.CompareAndSwap(x, y) {
			return first, m
		}
	}
	return 0, 0
}

// Register returns a per-goroutine handle with the next id: HandleAt
// over a counter, which is rolled back when HandleAt fails. A wCQ
// queue therefore fails once its census is exhausted; SCQ never fails.
func (q *Queue[T]) Register() (*QueueHandle[T], error) {
	id := q.ids.Add(1) - 1
	h, err := q.HandleAt(int(id))
	if err != nil {
		q.ids.Add(-1)
		return nil, err
	}
	return h, nil
}

// HandleAt returns a handle that uses thread record id, in [0,
// maxThreads), in both index rings of a wCQ queue; it fails when id is
// out of that range. SCQ has no records, so its handle operates on the
// two rings directly and id only picks its kept-index slot: a negative
// id, or one at or past maxThreads, has none, and never keeps. A
// negative id's handle is bound to fq here, which HandleAt builds if
// need be, so its scalar operations write no handle state and any
// number of goroutines may share it for scalar Enqueue and Dequeue
// (its batches would share one scratch buffer). The caller owns the
// numbering: no two goroutines may use one id at once, and HandleAt
// and Register are never mixed on one queue, with one exception: an
// id without a slot, such as the public lock-free queue's shared
// HandleAt(-1), may sit beside Registered handles, since it is never
// admitted and takes no id from Register's count.
func (q *Queue[T]) HandleAt(id int) (*QueueHandle[T], error) {
	h := &QueueHandle[T]{q: q, id: id, slot: q.slot(id)}
	switch q.kind {
	case KindWCQ:
		aqh, err := q.aq.(*wcq.Ring).HandleAt(id)
		if err != nil {
			return nil, err
		}
		h.aq = aqh
	case KindSCQ:
		h.aq = q.aq.(*scq.Ring)
	}
	h.bind(id < 0)
	q.admit(h)
	return h, nil
}

// free returns h's view of q's fq, bound by bind on first use. When q
// has no fq yet it returns nil, unless build is set: an operation that
// returns an index to fq builds it, and one that only takes from fq
// reads a missing fq as empty. Once the view is bound this is one nil
// check.
//
//wfq:noalloc
func (h *QueueHandle[T]) free(build bool) indexRing {
	if h.fq != nil {
		return h.fq
	}
	return h.bind(build)
}

// bind points h's view at q's fq, first building fq when q has none
// and build is set, and returns the view; nil when q has no fq and
// build is clear. A wCQ handle's first bind allocates its record
// handle in fq; a later bind retargets that handle.
//
//wfq:allocok first bind of a wCQ handle, and the first recycle on a queue without fq
func (h *QueueHandle[T]) bind(build bool) indexRing {
	q := h.q
	if build && q.freeRing() == nil {
		q.buildFree()
	}
	switch q.kind {
	case KindWCQ:
		r := q.wfq.Load()
		if r == nil {
			return nil
		}
		if h.wfq == nil {
			fqh, err := r.HandleAt(h.id)
			if err != nil {
				panic("ringcore: binding fq: " + err.Error())
			}
			h.wfq = fqh
		} else {
			h.wfq.Retarget(r)
		}
		h.fq = h.wfq
	case KindSCQ:
		r := q.sfq.Load()
		if r == nil {
			return nil
		}
		h.fq = r
	}
	return h.fq
}

// freeRing returns q's fq as a whole ring, nil until it is built.
//
//wfq:noalloc
func (q *Queue[T]) freeRing() wholeRing {
	if r := q.wfq.Load(); r != nil {
		return r
	}
	if r := q.sfq.Load(); r != nil {
		return r
	}
	return nil
}

// slot returns the kept-index slot and run of id, or nil when id has
// none.
//
//wfq:noalloc
func (q *Queue[T]) slot(id int) *slotLine {
	if uint(id) >= uint(len(q.kept)) {
		return nil
	}
	return &q.kept[id]
}

// admit raises ids past h's id, if h has a slot, so that every steal
// pass from here on reaches that slot. A retry means another id was
// admitted, which happens at most once per id, so admit is wait-free.
//
//wfq:noalloc
func (q *Queue[T]) admit(h *QueueHandle[T]) {
	if h.slot == nil {
		return
	}
	for n := q.ids.Load(); n <= int64(h.id); n = q.ids.Load() {
		if q.ids.CompareAndSwap(n, int64(h.id)+1) {
			return
		}
	}
}

// Retarget points h at queue q, which must be of h's kind and, for
// wCQ, have at least h's id in records: h keeps its id, and its index
// scratch, and uses the record and the kept-index slot with that id in
// q. An index h kept in its old queue stays in that queue's slot, and
// its run there stays in that queue's run word, for others to steal. h
// must have no operation in flight. Its view of fq is unbound, and
// free binds it to q's fq on first use. It allocates nothing, and
// neither does that bind once h has bound once, so a handle can move
// from ring to ring as the unbounded construction's turnover does.
//
//wfq:noalloc
func (h *QueueHandle[T]) Retarget(q *Queue[T]) {
	switch q.kind {
	case KindWCQ:
		h.aq.(*wcq.Handle).Retarget(q.aq.(*wcq.Ring))
	case KindSCQ:
		h.aq = q.aq.(*scq.Ring)
	}
	h.fq = nil
	h.q = q
	h.slot = q.slot(h.id)
	q.admit(h)
}

// Queue returns the queue h operates on.
//
//wfq:noalloc
func (h *QueueHandle[T]) Queue() *Queue[T] { return h.q }

// Acquire is Register behind the Core contract.
func (q *Queue[T]) Acquire() (Handle[T], error) {
	h, err := q.Register()
	if err != nil {
		return nil, err
	}
	return h, nil
}

// scratch returns the handle's index buffer, grown to hold n entries
// but never past the ring capacity — at most Cap() indices can move
// per call, so a batch far larger than the ring must not pin a
// buffer sized to the batch (short counts are within the batch
// contract; the caller resumes with the remainder).
//
//wfq:allocok grows to ring capacity once per handle, then reused
func (h *QueueHandle[T]) scratch(n int) []uint64 {
	if c := int(h.q.Cap()); n > c {
		n = c
	}
	if cap(h.idxBuf) < n {
		h.idxBuf = make([]uint64, n)
	}
	return h.idxBuf[:n]
}

// Enqueue appends v; it returns false when the queue is full.
//
//wfq:noalloc
func (h *QueueHandle[T]) Enqueue(v T) bool {
	idx, ok := h.index()
	if !ok {
		return false
	}
	h.q.data[idx] = v
	h.aq.Enqueue(idx)
	return true
}

// index finds the data slot for a scalar Enqueue's value, in the order
// h's kept index, h's run, the fresh counter, fq, then the steal pass;
// ok is false when all came up empty. A handle with a kept-index slot
// claims runLen fresh indices at once and keeps the rest as its run:
// its run was empty, and only h fills it. It also marks the Enqueue
// for keep. A handle without a slot claims one index and writes
// nothing of its own.
//
//wfq:noalloc
func (h *QueueHandle[T]) index() (idx uint64, ok bool) {
	q, s := h.q, h.slot
	if s == nil {
		if first, m := q.claim(1); m != 0 {
			return first, true
		}
	} else {
		h.enq = true
		if idx, ok = take(&s.kept); ok {
			return idx, true
		}
		first, m := takeRun(&s.run, 1)
		if m == 0 {
			if first, m = q.claim(runLen); m > 1 {
				s.run.Store((first+1)*runLen + m - 1)
			}
		}
		if m != 0 {
			return first, true
		}
	}
	if fq := h.free(false); fq != nil {
		if idx, ok = fq.Dequeue(); ok {
			return idx, true
		}
	}
	var one [1]uint64
	return one[0], q.steal(one[:]) == 1
}

// take empties kept-index slot s and returns the index it held; ok is
// false when it held none. The Load leaves an empty slot's line
// unwritten.
//
//wfq:noalloc
func take(s *atomic.Uint64) (idx uint64, ok bool) {
	if s.Load() == 0 {
		return 0, false
	}
	x := s.Swap(0)
	return x - 1, x != 0
}

// steal fills a prefix of out with indices other handles hold, in one
// pass over the kept-index slot and the run of every id a handle has
// used, and returns its length. The pass is not atomic: a slot or run
// filled behind it is missed.
//
//wfq:noalloc
func (q *Queue[T]) steal(out []uint64) int {
	n, kept := 0, q.kept[:min(q.ids.Load(), int64(len(q.kept)))]
	for id := 0; id < len(kept) && n < len(out); id++ {
		s := &kept[id]
		if idx, ok := take(&s.kept); ok {
			out[n] = idx
			n++
		}
		if n == len(out) {
			break
		}
		first, m := takeRun(&s.run, uint64(len(out)-n))
		for j := range m {
			out[n] = first + j
			n++
		}
	}
	return n
}

// Dequeue removes and returns the oldest value; ok is false when the
// queue is empty. The value's index goes back to fq, or into h's
// kept-index slot (see keep).
//
//wfq:noalloc
func (h *QueueHandle[T]) Dequeue() (v T, ok bool) {
	idx, ok := h.aq.Dequeue()
	if !ok {
		return v, false
	}
	v = h.move(idx)
	if !h.keep(idx) {
		h.free(true).Enqueue(idx)
	}
	return v, true
}

// keep parks idx in h's kept-index slot when h's last scalar operation
// was an Enqueue and the slot is empty, and reports whether it did.
// The CAS from empty matters: the unbounded construction's two views
// of one handle share an id, so neither may overwrite an index the
// other kept.
//
//wfq:noalloc
func (h *QueueHandle[T]) keep(idx uint64) bool {
	if !h.enq {
		return false
	}
	h.enq = false
	return h.slot.kept.CompareAndSwap(0, idx+1)
}

// Drain is Dequeue without recycling: the value's index is neither
// handed back to fq nor kept, so its slot never takes another value.
// It is for a queue that takes no more enqueues, such as a sealed ring
// of the unbounded construction: the short enqueue that sealed it
// found the fresh counter exhausted and every run empty at its pass,
// so an Enqueue still in flight on it finds fq and the kept-index
// slots empty once every index has been drained, and reports full.
// Only a run its owner stored behind that pass still holds indices,
// which its owner may use while in flight and which are otherwise
// never used.
//
//wfq:noalloc
func (h *QueueHandle[T]) Drain() (v T, ok bool) {
	idx, ok := h.aq.Dequeue()
	if !ok {
		return v, false
	}
	return h.move(idx), true
}

// move takes the value out of data slot idx; Dequeue and Drain differ
// only in what they then do with idx. When T holds pointers it zeroes
// the slot, so the queue keeps no taken value alive. A pointer-free
// slot is left as it is: the store would release nothing and would
// only write a line that the enqueuers of neighbouring slots also
// write.
//
//wfq:noalloc
func (h *QueueHandle[T]) move(idx uint64) T {
	v := h.q.data[idx]
	if h.q.refs {
		var zero T
		h.q.data[idx] = zero
	}
	return v
}

// EnqueueBatch appends a prefix of vs in order and returns its length;
// a short count means the queue filled up mid-batch. The batch takes
// h's kept index, a run of never-used indices with one F&A on the
// fresh counter, the rest from fq, and what fq lacks from the
// kept-index slots and runs. Taking its own kept index first lets the
// unbounded construction's twice-beaten appender seed its spare ring
// with the index it kept there, so its next take-back can keep again
// instead of building the spare's fq. Index traffic with fq/aq moves
// through the native ring batches, so the fast path pays one F&A per
// ring per batch instead of one per element.
//
//wfq:noalloc
func (h *QueueHandle[T]) EnqueueBatch(vs []T) int {
	if len(vs) == 0 {
		return 0
	}
	buf := h.scratch(len(vs))
	n := 0
	if s := h.slot; s != nil {
		if idx, ok := take(&s.kept); ok {
			buf[0], n = idx, 1
		}
	}
	if n < len(buf) {
		first, m := h.q.claim(uint64(len(buf) - n))
		for j := range m {
			buf[n+int(j)] = first + j
		}
		n += int(m)
	}
	if n < len(buf) {
		if fq := h.free(false); fq != nil {
			n += fq.DequeueBatch(buf[n:])
		}
	}
	if n < len(buf) {
		n += h.q.steal(buf[n:])
	}
	for j := 0; j < n; j++ {
		h.q.data[buf[j]] = vs[j]
	}
	h.aq.EnqueueBatch(buf[:n])
	return n
}

// DequeueBatch fills a prefix of out with the oldest values and
// returns its length; 0 means the queue appeared empty. Every index
// goes back to fq: a batch keeps none.
//
//wfq:noalloc
func (h *QueueHandle[T]) DequeueBatch(out []T) int {
	if len(out) == 0 {
		return 0
	}
	buf := h.scratch(len(out))
	n := h.aq.DequeueBatch(buf)
	if n == 0 {
		return 0 // an empty poll builds no fq
	}
	h.moveBatch(out, buf[:n])
	h.free(true).EnqueueBatch(buf[:n])
	return n
}

// DrainBatch is DequeueBatch without recycling, as Drain is Dequeue
// without it.
//
//wfq:noalloc
func (h *QueueHandle[T]) DrainBatch(out []T) int {
	if len(out) == 0 {
		return 0
	}
	buf := h.scratch(len(out))
	n := h.aq.DequeueBatch(buf)
	h.moveBatch(out, buf[:n])
	return n
}

// moveBatch is move over a run of indices, into a prefix of out.
//
//wfq:noalloc
func (h *QueueHandle[T]) moveBatch(out []T, idx []uint64) {
	data := h.q.data
	for j, i := range idx {
		out[j] = data[i]
	}
	if h.q.refs {
		var zero T
		for _, i := range idx {
			data[i] = zero
		}
	}
}

// Empty reports that the queue held no value at some instant during
// the call: aq's head counter had caught up with its tail counter, so
// every enqueued value had been claimed by a dequeue. The probe is
// one-sided (a concurrent enqueue may land right after), which is the
// guarantee the blocking facade's direct handoff needs — handing a
// value past the ring is FIFO-safe iff nothing unclaimed precedes it.
//
//wfq:noalloc
func (q *Queue[T]) Empty() bool { return q.aq.Drained() }

// Cap returns the queue capacity: one data slot per ring index.
//
//wfq:noalloc
func (q *Queue[T]) Cap() uint64 { return uint64(len(q.data)) }

// Stats snapshots the metrics sink both rings record into (zero when
// disabled). aq and fq are built from the same Options, so one ring
// answers for the queue.
func (q *Queue[T]) Stats() metrics.Snapshot { return q.aq.Metrics().Snapshot() }

// Footprint returns the byte size of what the queue has allocated:
// both rings (fq once it is built), any thread records, the kept-index
// slots and runs, and the payload array slots of T's size each. It
// rises once, when fq is built, and is fixed otherwise.
//
//wfq:noalloc
func (q *Queue[T]) Footprint() uint64 {
	var v T
	f := q.aq.Footprint() + uint64(len(q.kept))*uint64(unsafe.Sizeof(slotLine{})) + uint64(cap(q.data))*uint64(unsafe.Sizeof(v))
	if r := q.freeRing(); r != nil {
		f += r.Footprint()
	}
	return f
}
