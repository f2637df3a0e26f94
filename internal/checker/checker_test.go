package checker

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/queueapi"
)

func TestEncodeDecode(t *testing.T) {
	for _, c := range []struct{ p, s int }{{0, 0}, {3, 12345}, {255, 1 << 30}} {
		p, s := Decode(Encode(c.p, c.s))
		if p != c.p || s != c.s {
			t.Fatalf("round trip (%d,%d) -> (%d,%d)", c.p, c.s, p, s)
		}
	}
}

// mutexQueue is a trivially correct queue used to validate the checker
// itself accepts correct behaviour.
type mutexQueue struct {
	mu sync.Mutex
	vs []uint64
}

func (q *mutexQueue) Handle() (queueapi.Handle, error) { return q, nil }
func (q *mutexQueue) Cap() uint64                      { return 0 }
func (q *mutexQueue) Footprint() uint64                { return 0 }
func (q *mutexQueue) Name() string                     { return "mutex" }
func (q *mutexQueue) Enqueue(v uint64) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.vs = append(q.vs, v)
	return true
}
func (q *mutexQueue) Dequeue() (uint64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.vs) == 0 {
		return 0, false
	}
	v := q.vs[0]
	q.vs = q.vs[1:]
	return v, true
}

// dupQueue delivers every value twice — the checker must reject it.
type dupQueue struct {
	mutexQueue
	pending []uint64
}

func (q *dupQueue) Handle() (queueapi.Handle, error) { return q, nil }
func (q *dupQueue) Dequeue() (uint64, bool) {
	q.mu.Lock()
	if len(q.pending) > 0 {
		v := q.pending[0]
		q.pending = q.pending[1:]
		q.mu.Unlock()
		return v, true
	}
	q.mu.Unlock()
	v, ok := q.mutexQueue.Dequeue()
	if ok {
		q.mu.Lock()
		q.pending = append(q.pending, v)
		q.mu.Unlock()
	}
	return v, ok
}

// lifoQueue violates FIFO — the checker must reject it.
type lifoQueue struct{ mutexQueue }

func (q *lifoQueue) Handle() (queueapi.Handle, error) { return q, nil }
func (q *lifoQueue) Dequeue() (uint64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.vs) == 0 {
		return 0, false
	}
	v := q.vs[len(q.vs)-1]
	q.vs = q.vs[:len(q.vs)-1]
	return v, true
}

// blockingRef is a trivially correct blocking queue (a Go channel)
// used to validate that blocking rounds accept correct close/drain
// behaviour; with drop > 0 it silently loses values.
type blockingRef struct {
	ch   chan uint64
	drop int // deliver every drop-th value nowhere (0 = correct)
	mu   sync.Mutex
	n    int
}

func newBlockingRef(capacity, drop int) *blockingRef {
	return &blockingRef{ch: make(chan uint64, capacity), drop: drop}
}

func (q *blockingRef) Handle() (queueapi.Handle, error) { return q, nil }
func (q *blockingRef) Cap() uint64                      { return uint64(cap(q.ch)) }
func (q *blockingRef) Footprint() uint64                { return 0 }
func (q *blockingRef) Name() string                     { return "blocking-ref" }
func (q *blockingRef) Close() error                     { close(q.ch); return nil }

func (q *blockingRef) Enqueue(v uint64) bool {
	select {
	case q.ch <- v:
		return true
	default:
		return false
	}
}
func (q *blockingRef) Dequeue() (uint64, bool) {
	select {
	case v := <-q.ch:
		return v, true
	default:
		return 0, false
	}
}

func (q *blockingRef) Send(v uint64) error {
	if q.drop > 0 {
		q.mu.Lock()
		q.n++
		lose := q.n%q.drop == 0
		q.mu.Unlock()
		if lose {
			return nil // claims success, never delivers
		}
	}
	q.ch <- v
	return nil
}
func (q *blockingRef) SendCtx(ctx context.Context, v uint64) error {
	select {
	case q.ch <- v:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
func (q *blockingRef) Recv() (uint64, error) {
	v, ok := <-q.ch
	if !ok {
		return 0, queueapi.ErrClosed
	}
	return v, nil
}
func (q *blockingRef) RecvCtx(ctx context.Context) (uint64, error) {
	select {
	case v, ok := <-q.ch:
		if !ok {
			return 0, queueapi.ErrClosed
		}
		return v, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

func (q *blockingRef) SendMany(vs []uint64) (int, error) {
	for i, v := range vs {
		if err := q.Send(v); err != nil {
			return i, err
		}
	}
	return len(vs), nil
}
func (q *blockingRef) RecvMany(out []uint64) (int, error) {
	v, err := q.Recv()
	if err != nil {
		return 0, err
	}
	out[0] = v
	for n := 1; n < len(out); n++ {
		select {
		case v, ok := <-q.ch:
			if !ok {
				return n, nil
			}
			out[n] = v
		default:
			return n, nil
		}
	}
	return len(out), nil
}

// faultyBatcher is a mutexQueue with a native queueapi.Batcher that
// breaks one batch contract, named by fault ("" is correct).
type faultyBatcher struct {
	mutexQueue
	fault string
}

func (q *faultyBatcher) Handle() (queueapi.Handle, error) { return q, nil }
func (q *faultyBatcher) EnqueueBatch(vs []uint64) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := range vs {
		if q.fault == "reverse" {
			i = len(vs) - 1 - i
		}
		q.vs = append(q.vs, vs[i])
	}
	return len(vs)
}
func (q *faultyBatcher) DequeueBatch(out []uint64) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.fault == "partial-empty" && len(q.vs) < len(out) {
		return 0 // reports empty unless it can fill the whole buffer
	}
	n := copy(out, q.vs)
	q.vs = q.vs[n:]
	switch {
	case q.fault == "overwrite" && n < len(out):
		out[n] = 0 // one slot past the count
	case q.fault == "undercount" && n > 0:
		return n - 1 // the last value written is not counted
	case q.fault == "drop" && n > 0:
		out[n-1] = sentinel
		return n - 1 // the last value taken is neither written nor counted
	case q.fault == "duplicate" && n > 0:
		q.vs = append([]uint64{out[n-1]}, q.vs...) // delivered again later
	}
	return n
}

func TestCheckerAcceptsCorrectQueue(t *testing.T) {
	for _, q := range []func() queueapi.Queue{
		func() queueapi.Queue { return &mutexQueue{} }, // batches through the queueapi fallback
		func() queueapi.Queue { return &faultyBatcher{} },
	} {
		if err := Run(q(), Config{Producers: 2, Consumers: 2, PerProducer: 2000}); err != nil {
			t.Fatalf("correct queue rejected: %v", err)
		}
		if err := Run(q(), Config{Producers: 1, Consumers: 1, PerProducer: 5000}); err != nil {
			t.Fatalf("correct queue rejected at 1x1: %v", err)
		}
	}
	if err := RunDrain(&mutexQueue{}, 5000); err != nil {
		t.Fatalf("correct queue rejected by drain: %v", err)
	}
}

func TestBatchCheckerAcceptsCorrectQueue(t *testing.T) {
	// Batch lengths run up to 8 here; the bounded reference caps the
	// deterministic batch phase at half its 6 slots.
	for _, q := range []queueapi.Queue{&mutexQueue{}, &faultyBatcher{}, newBlockingRef(6, 0)} {
		if err := Run(q, Config{Producers: 2, Consumers: 2, PerProducer: 2000, Batch: 8}); err != nil {
			t.Fatalf("%s: correct queue rejected by batched rounds: %v", q.Name(), err)
		}
	}
}

func TestCheckerCatchesDuplicates(t *testing.T) {
	err := Run(&dupQueue{}, Config{Producers: 1, Consumers: 1, PerProducer: 100})
	if err == nil || !strings.Contains(err.Error(), "more than once") {
		t.Fatalf("duplicate deliveries not detected: %v", err)
	}
}

func TestBatchCheckerCatchesDuplicates(t *testing.T) {
	err := Run(&faultyBatcher{fault: "duplicate"}, Config{Producers: 2, Consumers: 2, PerProducer: 200, Batch: 4})
	if err == nil || !strings.Contains(err.Error(), "more than once") {
		t.Fatalf("batch duplicate deliveries not detected: %v", err)
	}
}

func TestCheckerCatchesFIFOViolation(t *testing.T) {
	err := Run(&lifoQueue{}, Config{Producers: 1, Consumers: 1, PerProducer: 1000})
	if err == nil || !strings.Contains(err.Error(), "per-producer FIFO violation") {
		t.Fatalf("LIFO order not detected: %v", err)
	}
}

// TestCheckerCatchesBatchFaults: each broken batch contract fails a
// mixed round with the check aimed at it.
func TestCheckerCatchesBatchFaults(t *testing.T) {
	for _, c := range []struct{ fault, want string }{
		{"reverse", "per-producer FIFO violation"},
		{"overwrite", "wrote past its count"},
		{"undercount", "wrote past its count"}, // the uncounted value sits past the count
		{"drop", "delivered 0 times"},
		// Consumers retry and the final drain is scalar, so only the
		// deterministic phase on the drained queue sees this one.
		{"partial-empty", "batch lost values"},
	} {
		err := Run(&faultyBatcher{fault: c.fault}, Config{Producers: 1, Consumers: 1, PerProducer: 1000})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.fault, err, c.want)
		}
	}
}

func TestBatchPhaseCatchesFaultsOnEverySchedule(t *testing.T) {
	// The deterministic batch phase alone names each fault that a
	// round's consumers may miss when no batch receive of theirs finds
	// a value, whatever the schedule of that round was.
	for _, c := range []struct{ fault, want string }{
		{"overwrite", "wrote past its count"},
		{"undercount", "wrote past its count"},
		{"drop", "delivered 0 times"},
		{"partial-empty", "batch lost values"},
	} {
		q := &faultyBatcher{fault: c.fault}
		err := checkBatchAtomicity(q, q, 16)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.fault, err, c.want)
		}
	}
}

// pairLoser is a mutexQueue whose handle loses every 50th value it
// dequeues right after an enqueue of its own: a fault in a per-handle
// path that only a goroutine in both roles reaches, as the payload
// queue's kept-index slots are.
type pairLoser struct{ mutexQueue }

func (q *pairLoser) Handle() (queueapi.Handle, error) { return &pairLoserHandle{q: q}, nil }

type pairLoserHandle struct {
	q        *pairLoser
	enq      bool
	afterEnq int
}

func (h *pairLoserHandle) Enqueue(v uint64) bool { h.enq = true; return h.q.Enqueue(v) }
func (h *pairLoserHandle) Dequeue() (uint64, bool) {
	v, ok := h.q.Dequeue()
	if ok && h.enq {
		if h.afterEnq++; h.afterEnq%50 == 0 {
			v, ok = h.q.Dequeue() // the first value is lost
		}
	}
	h.enq = false
	return v, ok
}

func TestCheckerMixedRolesCatchPairFault(t *testing.T) {
	// Dedicated producers and consumers never dequeue right after
	// their own enqueue, so only the mixed-role phase sees the loss.
	err := Run(&pairLoser{}, Config{Producers: 2, Consumers: 2, PerProducer: 1000})
	if err == nil || !strings.Contains(err.Error(), "mixed roles") || !strings.Contains(err.Error(), "delivered 0 times") {
		t.Fatalf("pair fault: got %v, want a mixed-roles loss", err)
	}
}

func TestBlockingCheckerAcceptsCorrectQueue(t *testing.T) {
	q := newBlockingRef(64, 0)
	if err := Run(q, Config{Producers: 3, Consumers: 3, PerProducer: 3000, Blocking: true}); err != nil {
		t.Fatalf("correct blocking queue rejected: %v", err)
	}
}

func TestBlockingCheckerCatchesLoss(t *testing.T) {
	q := newBlockingRef(64, 100) // silently drops every 100th value
	err := Run(q, Config{Producers: 2, Consumers: 2, PerProducer: 2000, Blocking: true})
	if err == nil || !strings.Contains(err.Error(), "delivered 0 times") {
		t.Fatalf("lost values not detected by the blocking round: %v", err)
	}
}

func TestBlockingCheckerRejectsNonBlockingQueue(t *testing.T) {
	if err := Run(&mutexQueue{}, Config{Producers: 1, Consumers: 1, PerProducer: 1, Blocking: true}); err == nil {
		t.Fatal("queue without Closer/Waitable accepted")
	}
}
