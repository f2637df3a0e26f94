// Package checker provides the MPMC correctness harness applied to
// every queue implementation in this repository. It verifies the three
// properties a linearizable MPMC FIFO must exhibit under concurrency:
//
//  1. No loss: every enqueued value is eventually dequeued.
//  2. No duplication: no value is dequeued twice.
//  3. Per-producer FIFO: each consumer observes any one producer's
//     values in strictly increasing sequence order (a consequence of
//     linearizability that is cheap to check without full history
//     analysis). With one producer and one consumer this is strict
//     global FIFO.
//
// Values are encoded as producerID<<32 | sequence.
package checker

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/queueapi"
)

// Config sizes a checker run.
type Config struct {
	Producers   int
	Consumers   int
	PerProducer int
	// Batch caps the length of a batch operation: each one draws a
	// length in [2, Batch]. Values below 2 mean 16.
	Batch int
	// Blocking drives the blocking surface (Send/SendMany,
	// Recv/RecvMany, then Close and a drain to ErrClosed) instead of
	// the nonblocking one.
	Blocking bool
}

// Encode builds a checker payload value.
func Encode(producer, seq int) uint64 { return uint64(producer)<<32 | uint64(seq) }

// Decode splits a checker payload value.
func Decode(v uint64) (producer, seq int) { return int(v >> 32), int(v & 0xffffffff) }

// verifier holds the property-checking state of one Run.
type verifier struct {
	cfg       Config
	delivered []atomic.Int32
	errs      chan error
}

func newVerifier(cfg Config) *verifier {
	return &verifier{
		cfg:       cfg,
		delivered: make([]atomic.Int32, cfg.Producers*cfg.PerProducer),
		errs:      make(chan error, cfg.Producers+cfg.Consumers+16),
	}
}

// report records an error without blocking: first errors win.
func (vf *verifier) report(err error) {
	select {
	case vf.errs <- err:
	default:
	}
}

// observe validates one dequeued value against a consumer's
// per-producer order state (lastSeq is consumer-local).
func (vf *verifier) observe(v uint64, lastSeq map[int]int) {
	p, seq := Decode(v)
	if p >= vf.cfg.Producers || seq >= vf.cfg.PerProducer {
		vf.report(fmt.Errorf("corrupt value %#x", v))
		return
	}
	if vf.delivered[p*vf.cfg.PerProducer+seq].Add(1) != 1 {
		vf.report(fmt.Errorf("value %#x delivered more than once", v))
		return
	}
	if prev, seen := lastSeq[p]; seen && seq <= prev {
		vf.report(fmt.Errorf("per-producer FIFO violation: producer %d seq %d after %d", p, seq, prev))
	}
	lastSeq[p] = seq
}

// finish returns the first reported error, or the result of the
// exactly-once sweep.
func (vf *verifier) finish() error {
	close(vf.errs)
	if err, ok := <-vf.errs; ok {
		return err
	}
	for id := range vf.delivered {
		if vf.delivered[id].Load() != 1 {
			p, seq := id/vf.cfg.PerProducer, id%vf.cfg.PerProducer
			return fmt.Errorf("value (p=%d, seq=%d) delivered %d times", p, seq, vf.delivered[id].Load())
		}
	}
	return nil
}

// sentinel poisons dequeue buffers so over-writing batch accounting
// (a DequeueBatch writing past its returned count) is detectable. It
// decodes to an impossible producer id, so a leak into real values is
// caught by observe as corruption.
const sentinel = ^uint64(0)

// endpoint is one goroutine's view of the surface a round drives. put
// moves all of vs in order, as one scalar operation when scalar is set
// (vs then holds one value) and as batch operations otherwise. take
// moves at most len(out) values into out the same way: a nonblocking
// take reports an empty queue as 0 values, a blocking one parks and
// reports ErrClosed once the queue is closed and drained.
type endpoint interface {
	put(vs []uint64, scalar bool) error
	take(out []uint64, scalar bool) (int, error)
}

// handleEndpoint is the nonblocking surface: Enqueue/Dequeue and the
// queueapi batch helpers (the native Batcher when the handle has one).
type handleEndpoint struct{ h queueapi.Handle }

func (e handleEndpoint) put(vs []uint64, scalar bool) error {
	if scalar {
		for !e.h.Enqueue(vs[0]) {
			runtime.Gosched() // full: wait for consumers
		}
		return nil
	}
	for sent := 0; sent < len(vs); {
		n := queueapi.EnqueueBatch(e.h, vs[sent:])
		if n < 0 || n > len(vs)-sent {
			return fmt.Errorf("EnqueueBatch returned %d for a %d-element batch", n, len(vs)-sent)
		}
		if n == 0 {
			runtime.Gosched()
		}
		sent += n // a short count is a prefix: resume right after it
	}
	return nil
}

func (e handleEndpoint) take(out []uint64, scalar bool) (int, error) {
	if !scalar {
		return queueapi.DequeueBatch(e.h, out), nil
	}
	v, ok := e.h.Dequeue()
	if !ok {
		return 0, nil
	}
	out[0] = v
	return 1, nil
}

// blockingHandle is what a blocking round needs of a handle.
type blockingHandle interface {
	queueapi.Waitable
	queueapi.BatchWaitable
}

// waitEndpoint is the blocking surface: parked Send/SendMany and
// Recv/RecvMany.
type waitEndpoint struct{ w blockingHandle }

func (e waitEndpoint) put(vs []uint64, scalar bool) error {
	if scalar {
		return e.w.Send(vs[0])
	}
	n, err := e.w.SendMany(vs)
	if err == nil && n != len(vs) {
		return fmt.Errorf("SendMany delivered %d of %d without error", n, len(vs))
	}
	return err
}

func (e waitEndpoint) take(out []uint64, scalar bool) (int, error) {
	if scalar {
		v, err := e.w.Recv()
		if err != nil {
			return 0, err
		}
		out[0] = v
		return 1, nil
	}
	n, err := e.w.RecvMany(out)
	if err == nil && n == 0 {
		return 0, errors.New("RecvMany returned 0 values with nil error")
	}
	return n, err
}

func newEndpoint(q queueapi.Queue, blocking bool) (endpoint, error) {
	h, err := q.Handle()
	if err != nil || !blocking {
		return handleEndpoint{h}, err
	}
	w, ok := h.(blockingHandle)
	if !ok {
		return nil, fmt.Errorf("%s handle is not blocking (no Send/SendMany/Recv/RecvMany)", q.Name())
	}
	return waitEndpoint{w}, nil
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// draw advances a goroutine's operation stream and picks its next
// operation: scalar with odds 1/2, else a batch of length [2, batch].
func draw(rng uint64, batch int) (next uint64, n int, scalar bool) {
	rng = xorshift(rng)
	if rng&1 == 0 {
		return rng, 1, true
	}
	return rng, 2 + int((rng>>1)%uint64(batch-1)), false
}

// Run drives q with cfg and returns an error describing the first
// violated property, if any.
//
// Each producer and each consumer draws every operation from its own
// xorshift stream, seeded from its index: a scalar operation or, with
// equal odds, a batch of length [2, cfg.Batch]. Producers resume a
// short batch count after the delivered prefix (the FIFO check proves
// the prefix contract), consumers poison their buffers with a sentinel
// so a batch receive writing past its count is caught, and the
// exactly-once sweep catches values a receive took but never handed
// over.
//
// A nonblocking round spins on full and empty. Consumers stop at the
// first empty result after every producer has finished, and the queue,
// then quiescent, is drained through one more handle, so lost values
// end the round instead of hanging it. A mixed-role phase follows on
// the same handles (checkMixedRoles), then the drain handle runs
// checkBatchAtomicity on the empty queue.
//
// A blocking round (cfg.Blocking) needs a queueapi.Closer whose
// handles are Waitable and BatchWaitable. Once every producer
// finishes, the queue is closed and consumers drain it until their
// receive reports ErrClosed: Close must lose nothing.
func Run(q queueapi.Queue, cfg Config) error {
	if cfg.Batch < 2 {
		cfg.Batch = 16
	}
	var closer queueapi.Closer
	if cfg.Blocking {
		c, ok := q.(queueapi.Closer)
		if !ok {
			return fmt.Errorf("checker: %s does not implement queueapi.Closer", q.Name())
		}
		closer = c
	}
	var last queueapi.Handle // the nonblocking round's drain handle
	if !cfg.Blocking {
		h, err := q.Handle()
		if err != nil {
			return fmt.Errorf("drain handle: %w", err)
		}
		last = h
	}
	prods := make([]endpoint, cfg.Producers)
	for p := range prods {
		e, err := newEndpoint(q, cfg.Blocking)
		if err != nil {
			return fmt.Errorf("producer handle: %w", err)
		}
		prods[p] = e
	}
	conss := make([]endpoint, cfg.Consumers)
	for c := range conss {
		e, err := newEndpoint(q, cfg.Blocking)
		if err != nil {
			return fmt.Errorf("consumer handle: %w", err)
		}
		conss[c] = e
	}
	var handles []queueapi.Handle // the mixed-role phase's, one per goroutine
	if !cfg.Blocking {
		for _, e := range append(prods, conss...) {
			handles = append(handles, e.(handleEndpoint).h)
		}
	}

	vf := newVerifier(cfg)
	var producers, consumers sync.WaitGroup
	var producersDone atomic.Bool
	for p, e := range prods {
		producers.Add(1)
		go func() {
			defer producers.Done()
			buf := make([]uint64, cfg.Batch)
			rng := uint64(p+1)*2654435761 + 1
			for i := 0; i < cfg.PerProducer; {
				var n int
				var scalar bool
				rng, n, scalar = draw(rng, cfg.Batch)
				vs := buf[:min(n, cfg.PerProducer-i)]
				for j := range vs {
					vs[j] = Encode(p, i+j)
				}
				if err := e.put(vs, scalar); err != nil {
					vf.report(fmt.Errorf("producer %d: %w", p, err))
					return
				}
				i += len(vs)
			}
		}()
	}
	for c, e := range conss {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			lastSeq := make(map[int]int, cfg.Producers)
			buf := make([]uint64, cfg.Batch)
			rng := uint64(c+101)*2654435761 + 1
			for {
				var n int
				var scalar bool
				rng, n, scalar = draw(rng, cfg.Batch)
				out := buf[:n]
				for i := range out {
					out[i] = sentinel
				}
				got, err := e.take(out, scalar)
				if got < 0 || got > n {
					vf.report(fmt.Errorf("consumer %d: batch receive returned %d for a %d-slot buffer", c, got, n))
					got = 0
				}
				for i := got; i < n; i++ {
					if out[i] != sentinel {
						vf.report(fmt.Errorf("consumer %d: batch receive wrote past its count at [%d]", c, i))
						break
					}
				}
				for _, v := range out[:got] {
					vf.observe(v, lastSeq)
				}
				if err != nil {
					if !errors.Is(err, queueapi.ErrClosed) {
						vf.report(fmt.Errorf("consumer %d: %w", c, err))
					}
					return
				}
				if got == 0 {
					if producersDone.Load() {
						return
					}
					runtime.Gosched()
				}
			}
		}()
	}

	producers.Wait()
	if closer != nil {
		if err := closer.Close(); err != nil {
			return fmt.Errorf("checker: Close: %w", err)
		}
	}
	producersDone.Store(true)
	consumers.Wait()
	if cfg.Blocking {
		return vf.finish()
	}
	drainInto(vf, last)
	if err := vf.finish(); err != nil {
		return err
	}
	if err := checkMixedRoles(handles, last, max(cfg.PerProducer/4, 1)); err != nil {
		return fmt.Errorf("mixed roles: %w", err)
	}
	if err := checkBatchAtomicity(q, last, cfg.Batch); err != nil {
		return fmt.Errorf("batch atomicity: %w", err)
	}
	return nil
}

// drainInto dequeues through h until the queue reports empty, checking
// every value against vf.
func drainInto(vf *verifier, h queueapi.Handle) {
	lastSeq := make(map[int]int, vf.cfg.Producers)
	for v, ok := h.Dequeue(); ok; v, ok = h.Dequeue() {
		vf.observe(v, lastSeq)
	}
}

// checkMixedRoles is the mixed-role phase of a nonblocking round: each
// handle's goroutine is producer and consumer at once, alternating a
// scalar enqueue of its next value with a scalar dequeue, under the
// same exactly-once and per-producer FIFO checks, and the drain handle
// takes what is left. A full enqueue is retried after the dequeue.
// Run calls it with a quarter of the round's per-producer count, so
// with as many producers as consumers the phase moves half as many
// values as the round. This is the pattern of the paper's pairwise
// workload, which a round of dedicated producers and consumers never
// runs; it reaches the payload queue's kept-index slots (an index a
// handle's dequeue frees and its next enqueue reuses) and the steals
// of those indices.
func checkMixedRoles(handles []queueapi.Handle, last queueapi.Handle, perGoroutine int) error {
	vf := newVerifier(Config{Producers: len(handles), Consumers: len(handles), PerProducer: perGoroutine})
	var wg sync.WaitGroup
	for g, h := range handles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastSeq := make(map[int]int, len(handles))
			for i := 0; i < perGoroutine; {
				put := h.Enqueue(Encode(g, i))
				if put {
					i++
				}
				v, ok := h.Dequeue()
				if ok {
					vf.observe(v, lastSeq)
				} else if !put {
					runtime.Gosched() // full, then empty: others are mid-operation
				}
			}
		}()
	}
	wg.Wait()
	drainInto(vf, last)
	return vf.finish()
}

// checkBatchAtomicity is the deterministic batch phase of a
// nonblocking round: one handle on the drained, otherwise idle queue,
// where every batch must take the uncontended fast path, so the batch
// atomicity contract is exact and checkable — EnqueueBatch(k) buffers
// exactly k values, DequeueBatch returns them contiguously in FIFO
// order relative to each other, and neither operation's count ever
// disagrees with what moved. The batch is capped at half the queue's
// capacity (no cap when unbounded); the queue is left empty.
func checkBatchAtomicity(q queueapi.Queue, h queueapi.Handle, batch int) error {
	k := batch
	if c := int(q.Cap()); c > 0 && k > c/2 {
		k = c / 2
	}
	if k < 1 {
		k = 1
	}
	in := make([]uint64, k)
	out := make([]uint64, k+1) // one slot of slack: an over-count is a bug, not a crash
	for round := 0; round < 4; round++ {
		for i := range in {
			in[i] = Encode(0, round*k+i)
		}
		sent := 0
		for sent < k {
			n := queueapi.EnqueueBatch(h, in[sent:])
			if n < 0 || n > k-sent {
				return fmt.Errorf("EnqueueBatch returned %d for a %d-element batch", n, k-sent)
			}
			if n == 0 {
				if sent == 0 {
					return fmt.Errorf("idle queue rejected batch enqueue")
				}
				// The single-handle capacity is smaller than k (e.g. a
				// sharded Chan's home shard holds capacity/shards):
				// adopt the discovered bound and verify with it.
				k = sent
				in = in[:k]
				break
			}
			sent += n
		}
		for i := range out {
			out[i] = sentinel
		}
		got := 0
		for got < k {
			n := queueapi.DequeueBatch(h, out[got:])
			if n < 0 || n > len(out)-got {
				return fmt.Errorf("DequeueBatch returned %d for a %d-slot buffer", n, len(out)-got)
			}
			// Check each call's tail, not just the last one's: a call
			// that wrote one value past its count leaves that value
			// where the next call would overwrite or never reach it.
			for i := got + n; i < len(out); i++ {
				if out[i] != sentinel {
					return fmt.Errorf("DequeueBatch wrote past its count at out[%d]", i)
				}
			}
			if n == 0 {
				return fmt.Errorf("batch lost values: drained %d of %d, so %d delivered 0 times", got, k, k-got)
			}
			got += n
		}
		if got != k {
			return fmt.Errorf("drained %d values, enqueued %d", got, k)
		}
		for i := 0; i < k; i++ {
			if out[i] != in[i] {
				return fmt.Errorf("batch not contiguous FIFO: out[%d] = %#x, want %#x", i, out[i], in[i])
			}
		}
		if n := queueapi.DequeueBatch(h, out[:1]); n != 0 {
			return fmt.Errorf("drained queue yielded %d extra value(s)", n)
		}
	}
	return nil
}

// RunDrain enqueues n values (spinning on full), then drains the queue
// and verifies count and set equality. Exercises repeated full/empty
// transitions sequentially.
func RunDrain(q queueapi.Queue, n int) error {
	h, err := q.Handle()
	if err != nil {
		return err
	}
	seen := make([]bool, n)
	pending := 0
	drained := 0
	for i := 0; i < n; i++ {
		for !h.Enqueue(Encode(0, i)) {
			// Full: drain one.
			v, ok := h.Dequeue()
			if !ok {
				return fmt.Errorf("queue both full and empty at %d", i)
			}
			if err := mark(seen, v); err != nil {
				return err
			}
			pending--
			drained++
		}
		pending++
	}
	for {
		v, ok := h.Dequeue()
		if !ok {
			break
		}
		if err := mark(seen, v); err != nil {
			return err
		}
		pending--
		drained++
	}
	if pending != 0 || drained != n {
		return fmt.Errorf("drained %d of %d (pending %d)", drained, n, pending)
	}
	return nil
}

func mark(seen []bool, v uint64) error {
	_, seq := Decode(v)
	if seq >= len(seen) {
		return fmt.Errorf("corrupt value %#x", v)
	}
	if seen[seq] {
		return fmt.Errorf("value %d dequeued twice", seq)
	}
	seen[seq] = true
	return nil
}
