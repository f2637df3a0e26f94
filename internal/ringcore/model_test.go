// Bounded-exhaustive check of the payload queue against a sequential
// model: every sequence of operations up to a fixed depth, on queues
// small enough that the free-index ring, the kept-index slots, the runs
// and the steal pass all come into play within a few operations. This
// is the small-scope hypothesis: a sequential fault in the index
// bookkeeping shows up on some short sequence at a tiny capacity.

package ringcore

import (
	"fmt"
	"testing"
)

// modelBatch is the length of every batch in the enumeration.
const modelBatch = 2

// modelShallow selects the -short depths; a race build sets it too
// (model_race_test.go).
var modelShallow bool

// model is the sequential specification of a Queue of capacity n: a
// FIFO of the values in the queue, and the count of free indices. That
// count starts at n, falls with each enqueued value, and rises with
// each dequeued value unless the queue is sealed, whose dequeues
// recycle nothing.
type model struct {
	fifo   []uint64
	free   int
	sealed bool
}

// opKind is one operation the enumeration runs.
type opKind int

const (
	opEnqueue opKind = iota
	opDequeue
	opEnqueueBatch
	opDequeueBatch
	opSeal
)

// modelOp is one step of a sequence: an operation on the handle with
// index h in the run's handle list, or a Seal of the queue.
type modelOp struct {
	kind opKind
	h    int
}

func (o modelOp) String() string {
	switch o.kind {
	case opEnqueue:
		return fmt.Sprintf("h%d.Enqueue", o.h)
	case opDequeue:
		return fmt.Sprintf("h%d.Dequeue", o.h)
	case opEnqueueBatch:
		return fmt.Sprintf("h%d.EnqueueBatch(%d)", o.h, modelBatch)
	case opDequeueBatch:
		return fmt.Sprintf("h%d.DequeueBatch(%d)", o.h, modelBatch)
	}
	return "Seal"
}

// modelHandleIDs lists the ids of a run's handles, all from HandleAt
// (HandleAt and Register do not mix): h0 and h1 own ids 0 and 1, h2 is
// a second view of id 0, as the unbounded construction's head and tail
// views are, so h0 and h2 share a kept-index slot and a run, and on
// SCQ h3 is the slotless shared handle, HandleAt(-1).
func modelHandleIDs(kind Kind) []int {
	if kind == KindSCQ {
		return []int{0, 1, 0, -1}
	}
	return []int{0, 1, 0}
}

// modelOps lists every operation of one step: the four operations on
// each handle, and Seal.
func modelOps(kind Kind) []modelOp {
	var ops []modelOp
	for h := range modelHandleIDs(kind) {
		for _, k := range []opKind{opEnqueue, opDequeue, opEnqueueBatch, opDequeueBatch} {
			ops = append(ops, modelOp{k, h})
		}
	}
	return append(ops, modelOp{kind: opSeal})
}

// modelRun is one sequence replayed on a fresh queue beside the model.
type modelRun struct {
	q     *Queue[uint64]
	hs    []*QueueHandle[uint64]
	m     model
	next  uint64 // the next value to enqueue; values are unique
	foot  uint64 // Footprint after the last step
	rises int    // how often Footprint has risen
}

// reset starts r over on a fresh queue of capacity n, reusing r's
// buffers.
func (r *modelRun) reset(kind Kind, n uint64) error {
	q, err := New[uint64](kind, n, 2, nil)
	if err != nil {
		return err
	}
	*r = modelRun{q: q, hs: r.hs[:0], m: model{fifo: r.m.fifo[:0], free: int(n)}, next: 1}
	for _, id := range modelHandleIDs(kind) {
		h, err := q.HandleAt(id)
		if err != nil {
			return err
		}
		r.hs = append(r.hs, h)
	}
	r.foot = q.Footprint()
	return nil
}

// enqueued checks that an enqueue of want values landed got, exactly
// as many as the model has free indices, up to want, and adds them to
// the model.
func (r *modelRun) enqueued(want, got int, vs []uint64) error {
	if exp := min(want, r.m.free); got != exp {
		return fmt.Errorf("enqueue of %d landed %d with %d free indices in the model, want %d", want, got, r.m.free, exp)
	}
	r.m.fifo = append(r.m.fifo, vs[:got]...)
	r.m.free -= got
	return nil
}

// dequeued checks that a dequeue of up to want values returned got, in
// the model's FIFO order and as many as the model holds, up to want,
// and takes them from the model.
func (r *modelRun) dequeued(want int, got []uint64) error {
	if exp := min(want, len(r.m.fifo)); len(got) != exp {
		return fmt.Errorf("dequeue of up to %d took %d with %d values in the model, want %d", want, len(got), len(r.m.fifo), exp)
	}
	for i, v := range got {
		if v != r.m.fifo[i] {
			return fmt.Errorf("dequeue returned %v, want the model's head %v", got, r.m.fifo[:len(got)])
		}
	}
	r.m.fifo = r.m.fifo[len(got):]
	if !r.m.sealed {
		r.m.free += len(got)
	}
	return nil
}

// step applies o to the queue and the model and checks the queue's
// answer, its emptiness and its footprint against the model.
func (r *modelRun) step(o modelOp) error {
	var err error
	var buf [modelBatch]uint64
	switch o.kind {
	case opEnqueue:
		buf[0] = r.next
		got := 0
		if r.hs[o.h].Enqueue(buf[0]) {
			got, r.next = 1, r.next+1
		}
		err = r.enqueued(1, got, buf[:1])
	case opEnqueueBatch:
		for i := range buf {
			buf[i] = r.next + uint64(i)
		}
		got := r.hs[o.h].EnqueueBatch(buf[:])
		r.next += uint64(got)
		err = r.enqueued(modelBatch, got, buf[:])
	case opDequeue:
		got := 0
		if v, ok := r.hs[o.h].Dequeue(); ok {
			buf[0], got = v, 1
		}
		err = r.dequeued(1, buf[:got])
	case opDequeueBatch:
		err = r.dequeued(modelBatch, buf[:r.hs[o.h].DequeueBatch(buf[:])])
	case opSeal:
		r.q.Seal()
		r.m.sealed = true
	}
	if err != nil {
		return err
	}
	if empty := len(r.m.fifo) == 0; r.q.Empty() != empty {
		return fmt.Errorf("Empty() = %v with %d values in the model", !empty, len(r.m.fifo))
	}
	switch f := r.q.Footprint(); {
	case f < r.foot:
		return fmt.Errorf("footprint fell from %d B to %d B", r.foot, f)
	case f > r.foot:
		r.rises++
		if r.rises > 1 {
			return fmt.Errorf("footprint rose a second time, from %d B to %d B", r.foot, f)
		}
		if r.m.sealed && (o.kind == opDequeue || o.kind == opDequeueBatch) {
			return fmt.Errorf("a dequeue on the sealed queue raised the footprint from %d B to %d B", r.foot, f)
		}
		r.foot = f
	}
	return nil
}

// refill drains an unsealed queue through h1 and then fills it through
// h0, and fails unless the drain returns the model's values and the
// refill takes exactly n: an index the operations lost, or one handed
// out twice, shows up here if no step caught it.
func (r *modelRun) refill() error {
	for len(r.m.fifo) > 0 {
		if err := r.step(modelOp{opDequeue, 1}); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
	}
	if _, ok := r.hs[1].Dequeue(); ok {
		return fmt.Errorf("drain: a value past the model's last")
	}
	n := int(r.q.Cap())
	for i := range n {
		if !r.hs[0].Enqueue(r.next) {
			return fmt.Errorf("refill: Enqueue %d of %d reported full", i+1, n)
		}
		r.next++
	}
	if r.hs[0].Enqueue(r.next) {
		return fmt.Errorf("refill: Enqueue %d succeeded on a queue of %d", n+1, n)
	}
	return nil
}

// replay runs seq on a fresh queue in r, checking every step, and ends
// an unsealed sequence with refill. A failure, a panic included, names
// the steps up to the one that failed.
func (r *modelRun) replay(kind Kind, n uint64, seq []modelOp) (err error) {
	at := -1
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
		if err != nil {
			err = fmt.Errorf("%s: after %v: %w", kind, seq[:min(at+1, len(seq))], err)
		}
	}()
	if err := r.reset(kind, n); err != nil {
		return err
	}
	for at = range seq {
		if err := r.step(seq[at]); err != nil {
			return err
		}
	}
	at = len(seq)
	if !r.m.sealed {
		return r.refill()
	}
	return nil
}

// enumerate calls visit with every sequence of exactly k steps over
// ops in which Seal appears at most once, and stops at the first
// error visit returns; it returns that error and the count visited.
func enumerate(ops []modelOp, k int, visit func([]modelOp) error) (int, error) {
	seq := make([]modelOp, 0, k)
	count := 0
	var walk func(sealed bool) error
	walk = func(sealed bool) error {
		if len(seq) == k {
			count++
			return visit(seq)
		}
		for _, o := range ops {
			if o.kind == opSeal && sealed {
				continue
			}
			seq = append(seq, o)
			err := walk(sealed || o.kind == opSeal)
			seq = seq[:len(seq)-1]
			if err != nil {
				return err
			}
		}
		return nil
	}
	return count, walk(false)
}

// TestModelEnumeration replays every sequence of up to d operations on
// a fresh queue of each kind at capacities 2 and 4, and checks each
// step and each unsealed sequence's end against the model (see step
// and refill). The operations are Enqueue, Dequeue, and batches of 2
// of each, on every handle of modelHandleIDs, and one Seal. d is 5 at
// capacity 2 and 4 at capacity 4 (3 and 3 under -short or -race).
// Depths are run shortest first, so a failure names a shortest failing
// sequence.
//
// Sequential faults in the index bookkeeping fail it at these depths,
// on both kinds (each a mutation of payload.go on a copy of the tree):
//
//   - a steal pass that skips runs: depth 1, [h0.Enqueue] and the
//     refill, which misses the index h1's drain appended to its run;
//   - a steal pass that stops one id short of ids: depth 1, the same
//     sequence;
//   - an owner Store over a non-empty run (appendRun storing a run of
//     the freed index alone where it does not extend the run): depth 2
//     at capacity 4, [h0.Enqueue h1.Enqueue] and the refill; at
//     capacity 2 every freed index extends a run, so none reaches it;
//   - a keep that overwrites a kept index: depth 4, [h0.Enqueue
//     h2.Enqueue h0.Dequeue h2.Dequeue] and the refill;
//   - a Dequeue that recycles on a sealed queue, or tests the seal
//     only after keep and run append: depth 4, [h0.Enqueue Seal
//     h0.Dequeue h0.EnqueueBatch(2)];
//   - a DequeueBatch that ignores the seal: depth 3 on wCQ, whose
//     footprint rises at [h0.Enqueue Seal h0.DequeueBatch(2)], and 4
//     on SCQ, whose shared handle built fq at HandleAt.
//
// Retarget is left to the next stage, which adds a second queue for
// it to move handles to.
func TestModelEnumeration(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind Kind) {
		for _, tc := range []struct {
			n     uint64
			depth int
		}{{2, 5}, {4, 4}} {
			t.Run(fmt.Sprintf("cap=%d", tc.n), func(t *testing.T) {
				t.Parallel()
				depth := tc.depth
				if testing.Short() || modelShallow {
					depth = 3
				}
				ops := modelOps(kind)
				var r modelRun
				total := 0
				for k := range depth + 1 {
					count, err := enumerate(ops, k, func(seq []modelOp) error { return r.replay(kind, tc.n, seq) })
					total += count
					if err != nil {
						t.Fatalf("depth %d: %v", k, err)
					}
				}
				t.Logf("%d sequences of up to %d operations", total, depth)
			})
		}
	})
}
