package wfqueue

import (
	"context"
	"fmt"
	"sync/atomic"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/pad"
	"repro/internal/park"
	"repro/internal/queueapi"
	"repro/internal/ringcore"
	"repro/internal/sharded"
)

// ErrClosed is returned by Chan operations after Close: sends fail
// with it immediately, receives fail with it once the buffered values
// have drained. It aliases the repository-wide sentinel so internal
// harnesses can match it with errors.Is.
var ErrClosed = queueapi.ErrClosed

// Backend selects the nonblocking core a Chan is built on.
type Backend int

const (
	// BackendWCQ buffers on the wait-free wCQ queue (the default).
	BackendWCQ Backend = iota
	// BackendSCQ buffers on the lock-free SCQ queue. It has no handle
	// census, so a Chan over it accepts any number of Handles.
	BackendSCQ
	// BackendSharded buffers on four bounded wCQ shards. Each handle
	// sends to a fixed home shard and receives from every shard, so
	// order is FIFO per handle only, and capacity (a power of two >=
	// 8) is split evenly across the shards.
	BackendSharded
	// BackendUnbounded buffers on the unbounded linked-ring queue (see
	// NewUnbounded): Send never blocks on capacity — only Recv parks —
	// and NewChan's capacity parameter becomes the linked rings' size
	// (the retained-memory granularity), not a bound.
	BackendUnbounded
	// BackendShardedUnbounded buffers on four unbounded linked-ring
	// wCQ shards (see BackendSharded and NewUnbounded): the head/tail
	// hot words are spread across shards AND Send never blocks on
	// capacity — each shard grows independently, only Recv parks. The
	// capacity parameter becomes each shard's ring size.
	BackendShardedUnbounded
)

// String names the backend by the nonblocking core it buffers on.
func (b Backend) String() string {
	switch b {
	case BackendWCQ:
		return "wCQ"
	case BackendSCQ:
		return "SCQ"
	case BackendSharded:
		return "Sharded"
	case BackendUnbounded:
		return "Unbounded"
	case BackendShardedUnbounded:
		return "ShardedUnbounded"
	}
	return "?"
}

// WithBackend selects the nonblocking core NewChan builds on. Other
// constructors ignore this option.
func WithBackend(b Backend) Option {
	return func(o *options) { o.backend = b }
}

// Chan is a blocking, closable facade over one of the nonblocking
// queues — the buffered-channel shape services want at the edge of a
// system, layered on the wait-free cores without touching their hot
// paths. A sender or receiver that finds the buffer full or empty
// parks at once (futex-style, via internal/park); no operation
// spin-polls. A send that finds a receiver parked on an empty buffer
// hands its value over directly (see chan_handoff.go); a receive that
// frees a slot wakes parked senders, which retry their enqueue.
//
// The close contract mirrors Go channels but stays a library: Close
// makes every subsequent or blocked Send return ErrClosed (the value
// is NOT buffered), while receives keep draining buffered values and
// return ErrClosed only once the Chan is closed AND empty. Unlike a
// Go channel, closing twice returns ErrClosed instead of panicking,
// and sending on a closed Chan is an error, not a panic.
//
// Like the queues underneath, a Chan is used through per-goroutine
// Handles (the wCQ census); a Handle must not be shared by two
// goroutines running concurrently.
//
// With BackendSharded, "full" follows the sharded queue's semantics:
// a sender blocks when its handle's home shard (capacity/shards
// values) fills, even if other shards have room. Receivers drain all
// shards, so blocked senders still make progress.
//
// With BackendUnbounded and BackendShardedUnbounded there is no
// "full": Send always completes without parking (the buffer grows in
// ring-sized steps instead — per shard, for the sharded variant), and
// only Recv parks. The close contract is unchanged.
//
//wfq:isolate
type Chan[T any] struct {
	// core is the nonblocking queue the Chan buffers on, consumed
	// through the same contract as every other composition. Its Empty
	// probe is the linearization point that makes a direct handoff
	// FIFO-safe (see ringcore.Core.Empty).
	core     ringcore.Core[T]
	notEmpty park.Point // receivers park here
	notFull  park.Point // senders park here
	// shardedFull marks the sharded backend, where "full" is a
	// per-home-shard condition: a slot freed in one shard is useless
	// to a sender homed elsewhere, so receivers must wake every
	// parked sender to re-check its own shard (FIFO Wake(1) could
	// hand the only wake to a sender whose shard is still full, which
	// re-parks and strands a free slot forever).
	shardedFull bool
	// met is the metrics sink shared with the backing core and both
	// park points (nil when WithMetrics was not given): the Chan layer
	// adds the close-drain count on top of the layers below.
	met    *metrics.Sink
	closed atomic.Bool
	_      pad.Line
	// sending counts in-flight sends of every kind (scalar, batch,
	// blocking and Try). Receivers treat "closed" as final only once
	// this is zero: a sender that passed the closed check may still be
	// buffering its value, and draining receivers must not give up
	// before it lands (or aborts). Every send writes it twice, so it
	// has a cache line to itself: on a line shared with the fields
	// every receive reads (core, shardedFull, notFull), each send
	// would evict that line from the receivers' caches.
	sending atomic.Int64
	_       pad.Line
}

// ChanHandle is a goroutine's capability to use a Chan. Not safe for
// concurrent use by multiple goroutines.
type ChanHandle[T any] struct {
	c *Chan[T]
	h ringcore.Handle[T]
	// rcell is this handle's direct-handoff transfer cell: a parking
	// receiver arms it on notEmpty so a sender can publish a value into
	// it. It lives in the handle — one goroutine's private memory,
	// never shared concurrently (the claim protocol serializes the
	// sender's write against the owner's read) — so no cache-line
	// padding is needed.
	rcell T
	// one is the scratch that makes a scalar operation the batch
	// operation over one element. It is zeroed after every use so the
	// handle keeps no reference to a value it has passed on.
	one [1]T
}

// NewChan returns an empty blocking channel facade buffering up to
// capacity values (a power of two >= 2) on the backend selected with
// WithBackend (default BackendWCQ), operated by at most maxThreads
// concurrent Handles (ignored by BackendSCQ, which has no census).
// With BackendUnbounded and BackendShardedUnbounded the buffer has no
// bound — capacity instead sets the linked rings' size (per shard,
// for the sharded variant) — and Send never blocks.
func NewChan[T any](capacity uint64, maxThreads int, opts ...Option) (*Chan[T], error) {
	o := buildOpts(opts)
	var (
		core ringcore.Core[T]
		err  error
	)
	switch o.backend {
	case BackendWCQ:
		if err = validate(capacity, maxThreads); err != nil {
			return nil, err
		}
		core, err = ringcore.New[T](ringcore.KindWCQ, capacity, maxThreads, &o.core)
	case BackendSCQ:
		// No census, so maxThreads is not validated (as NewLockFree).
		if err = validate(capacity, 1); err != nil {
			return nil, err
		}
		core, err = ringcore.New[T](ringcore.KindSCQ, capacity, maxThreads, &o.core)
	case BackendSharded:
		// Four shards of at least two slots each; checked here so the
		// error speaks of the total capacity, not of one shard's.
		if capacity < 2*sharded.Shards || capacity&(capacity-1) != 0 {
			return nil, fmt.Errorf("wfqueue: sharded capacity must be a power of two >= %d, got %d",
				2*sharded.Shards, capacity)
		}
		if err = validate(capacity, maxThreads); err != nil {
			return nil, err
		}
		core, err = sharded.New[T](capacity, maxThreads, &sharded.Options{Core: &o.core})
	case BackendUnbounded:
		// The capacity parameter becomes the linked rings' size: the
		// buffer has no bound, so Send never parks. Validate it here —
		// NewUnbounded would silently swap a zero for its default,
		// hiding a misconfiguration every other backend rejects.
		if err = validate(capacity, maxThreads); err != nil {
			return nil, err
		}
		var q *UnboundedQueue[T]
		if q, err = NewUnbounded[T](maxThreads, append(opts, WithRingCapacity(capacity))...); err == nil {
			core = q.q
		}
	case BackendShardedUnbounded:
		// Like BackendUnbounded, capacity is a ring size (here: each
		// shard's), never a bound, so Send never parks.
		if err = validate(capacity, maxThreads); err != nil {
			return nil, err
		}
		core, err = sharded.New[T](capacity, maxThreads, &sharded.Options{Unbounded: true, Core: &o.core})
	default:
		return nil, fmt.Errorf("wfqueue: unknown chan backend %d", o.backend)
	}
	if err != nil {
		return nil, err
	}
	c := &Chan[T]{
		core:        core,
		shardedFull: o.backend == BackendSharded,
		met:         o.core.Metrics,
	}
	c.notEmpty.SetMetrics(o.core.Metrics)
	c.notFull.SetMetrics(o.core.Metrics)
	return c, nil
}

// Stats snapshots the Chan's metrics sink: park/wake traffic and the
// blocking-wait duration ladder from both park points, send-side
// handoffs, close-drain observations, and every event the backing core
// recorded into the shared sink. The Waiters gauge — the goroutines
// parked on the Chan right now — is filled even without WithMetrics;
// all other fields are zero then.
func (c *Chan[T]) Stats() MetricsSnapshot {
	s := c.met.Snapshot()
	s.Waiters = c.notEmpty.Waiters() + c.notFull.Waiters()
	return s
}

// wakeNotFullN wakes parked senders after n slots freed up: n senders
// on single-ring backends (any sender can use any slot), all of them
// on the sharded backend (see shardedFull).
//
//wfq:noalloc
func (c *Chan[T]) wakeNotFullN(n int) {
	if c.shardedFull {
		c.notFull.WakeAll()
	} else {
		c.notFull.Wake(n)
	}
}

// Handle registers the calling goroutine and returns its handle. For
// census-bound backends it fails once maxThreads handles exist.
func (c *Chan[T]) Handle() (*ChanHandle[T], error) {
	h, err := c.core.Acquire()
	if err != nil {
		return nil, err
	}
	return &ChanHandle[T]{c: c, h: h}, nil
}

// Cap returns the buffer capacity; 0 means unbounded
// (BackendUnbounded and BackendShardedUnbounded).
func (c *Chan[T]) Cap() uint64 { return c.core.Cap() }

// Footprint returns the bytes the backing queue retains. For bounded
// backends it rises at most once per ring, when the first recycled
// slot builds that ring's free-index ring, to the bound it always had,
// and never changes otherwise (parked waiters draw from a shared
// pool); for BackendUnbounded and
// BackendShardedUnbounded it is the live ring footprint, which grows
// with buffered values and shrinks after a drain.
func (c *Chan[T]) Footprint() uint64 { return c.core.Footprint() }

// Rings returns the number of live linked rings for BackendUnbounded
// (at least one) and BackendShardedUnbounded (summed over the shards),
// and 0 for the bounded backends, whose rings never change. Racy by
// nature; for introspection and capacity planning.
func (c *Chan[T]) Rings() int {
	if r, ok := c.core.(interface{ Rings() int }); ok {
		return r.Rings()
	}
	return 0
}

// Closed reports whether Close has been called.
func (c *Chan[T]) Closed() bool { return c.closed.Load() }

// Close closes the Chan: blocked and future sends fail with
// ErrClosed, receives drain the buffer and then fail with ErrClosed.
// A second Close returns ErrClosed.
func (c *Chan[T]) Close() error {
	if c.closed.Swap(true) {
		return ErrClosed
	}
	c.notEmpty.WakeAll()
	c.notFull.WakeAll()
	return nil
}

// finishSendN retires one in-flight send that delivered n values in
// its final step and wakes receivers: n of them for the delivered
// values, every parked receiver once the Chan is closed (each must
// re-evaluate the closed-and-drained condition now that the in-flight
// count moved). Values delivered by earlier steps of a batch send have
// already been signalled by then (see SendManyCtx).
//
//wfq:noalloc
func (c *Chan[T]) finishSendN(n int) {
	c.sending.Add(-1)
	if c.closed.Load() {
		c.notEmpty.WakeAll()
	} else if n > 0 {
		c.notEmpty.Wake(n)
	}
}

// put buffers a prefix of vs in the core and returns its length. A
// single value goes through the core's scalar Enqueue, so a scalar
// Send makes exactly one scalar core call: the core's counters and
// the per-layer ladder see a scalar operation, not a batch of one.
//
//wfq:noalloc
func (h *ChanHandle[T]) put(vs []T) int {
	if len(vs) == 1 {
		if h.h.Enqueue(vs[0]) {
			return 1
		}
		return 0
	}
	return h.h.EnqueueBatch(vs)
}

// take fills a prefix of out from the core and returns its length,
// through the scalar Dequeue for a single slot (see put).
//
//wfq:noalloc
func (h *ChanHandle[T]) take(out []T) int {
	if len(out) == 1 {
		if v, ok := h.h.Dequeue(); ok {
			out[0] = v
			return 1
		}
		return 0
	}
	return h.h.DequeueBatch(out)
}

// TrySend is the nonblocking send: ok reports whether v was buffered
// (false with a nil error means the buffer is full), and err is
// ErrClosed after Close.
//
//wfq:noalloc
func (h *ChanHandle[T]) TrySend(v T) (ok bool, err error) {
	h.one[0] = v
	n, err := h.TrySendMany(h.one[:])
	clear(h.one[:])
	return n == 1, err
}

// Send blocks until v is buffered, parking when the buffer is full.
// It returns ErrClosed (without buffering v) if the Chan closes
// first.
func (h *ChanHandle[T]) Send(v T) error { return h.SendCtx(context.Background(), v) }

// SendCtx is Send bounded by ctx: it returns ctx.Err() if the
// context expires before space frees up (v is not buffered).
func (h *ChanHandle[T]) SendCtx(ctx context.Context, v T) error {
	h.one[0] = v
	_, err := h.SendManyCtx(ctx, h.one[:])
	clear(h.one[:])
	return err
}

// TryRecv is the nonblocking receive: ok reports whether a value was
// taken (false with a nil error means the buffer is empty), and err
// is ErrClosed once the Chan is closed and drained.
//
//wfq:noalloc
func (h *ChanHandle[T]) TryRecv() (v T, ok bool, err error) {
	n, err := h.TryRecvMany(h.one[:])
	v = h.one[0]
	clear(h.one[:])
	return v, n == 1, err
}

// Recv blocks until a value arrives, parking while the buffer is
// empty. After Close it keeps draining buffered values and returns
// ErrClosed once none remain.
func (h *ChanHandle[T]) Recv() (T, error) { return h.RecvCtx(context.Background()) }

// RecvCtx is Recv bounded by ctx: it returns ctx.Err() if the
// context expires while the buffer is still empty.
func (h *ChanHandle[T]) RecvCtx(ctx context.Context) (T, error) {
	_, err := h.RecvManyCtx(ctx, h.one[:])
	v := h.one[0]
	clear(h.one[:])
	return v, err
}

// TrySendMany is the nonblocking batch send: it hands values to parked
// receivers first, then buffers a prefix of the rest through the
// backend's native batch reservation, and returns how many values it
// delivered either way (a short count means the buffer filled
// mid-batch), or ErrClosed after Close (nothing is delivered then).
//
//wfq:noalloc
func (h *ChanHandle[T]) TrySendMany(vs []T) (int, error) {
	c := h.c
	c.sending.Add(1)
	if c.closed.Load() {
		c.finishSendN(0)
		return 0, ErrClosed
	}
	// Handed-off values woke their receivers directly; only the
	// buffered ones are owed a notEmpty signal.
	n := h.handoff(vs)
	m := h.put(vs[n:])
	c.finishSendN(m)
	return n + m, nil
}

// SendMany blocks until every value of vs is buffered, in order,
// parking while the buffer is full. It returns how many values were
// buffered with ErrClosed if the Chan closes mid-batch (the count is
// the batch's delivered prefix; the rest was not buffered).
func (h *ChanHandle[T]) SendMany(vs []T) (int, error) {
	return h.SendManyCtx(context.Background(), vs)
}

// SendManyCtx is SendMany bounded by ctx: it returns the delivered
// prefix length and ctx.Err() if the context expires while the buffer
// is still full. Values buffered before an interruption stay
// buffered; receivers are woken as each chunk lands, not at the end
// of the batch.
//
// This is the one blocking send loop: Send and SendCtx run it over a
// batch of one.
func (h *ChanHandle[T]) SendManyCtx(ctx context.Context, vs []T) (int, error) {
	c := h.c
	if len(vs) == 0 {
		// Nothing to deliver: without this guard the loop below would
		// park on notFull forever (the success check lives inside the
		// delivered-a-chunk branch) while pinning the in-flight send
		// counter, wedging every receiver's close-drain check.
		if c.closed.Load() {
			return 0, ErrClosed
		}
		return 0, nil
	}
	c.sending.Add(1)
	sent := 0
	for {
		if c.closed.Load() {
			c.finishSendN(0)
			return sent, ErrClosed
		}
		// Rendezvous fast path: satisfy parked receivers directly, one
		// value each (each handoff wakes its receiver, so no notEmpty
		// signal is owed for these).
		if sent += h.handoff(vs[sent:]); sent == len(vs) {
			c.finishSendN(0)
			return sent, nil
		}
		if n := h.put(vs[sent:]); n > 0 {
			sent += n
			if sent == len(vs) {
				c.finishSendN(n)
				return sent, nil
			}
			c.notEmpty.Wake(n) // partial chunk is visible now; signal receivers
		}
		if err := ctx.Err(); err != nil {
			c.finishSendN(0)
			return sent, err
		}
		w := c.notFull.Prepare()
		// Re-check after registering: a receiver may have freed a
		// slot (or the Chan closed) before our waiter was visible,
		// in which case its wake cannot have targeted us.
		if c.closed.Load() {
			c.notFull.Abort(w)
			c.finishSendN(0)
			return sent, ErrClosed
		}
		if n := h.put(vs[sent:]); n > 0 {
			c.notFull.Abort(w)
			sent += n
			if sent == len(vs) {
				c.finishSendN(n)
				return sent, nil
			}
			c.notEmpty.Wake(n)
			continue
		}
		select {
		case <-w.Ready():
			// Plain (possibly forwarded) wake: loop and retry.
			c.notFull.Finish(w)
		case <-ctx.Done():
			c.notFull.Abort(w)
			c.finishSendN(0)
			return sent, ctx.Err()
		}
	}
}

// TryRecvMany is the nonblocking batch receive: it fills a prefix of
// out through the backend's native batch reservation and returns its
// length (0 with a nil error means the buffer is empty), or ErrClosed
// once the Chan is closed and drained.
//
//wfq:noalloc
func (h *ChanHandle[T]) TryRecvMany(out []T) (int, error) {
	c := h.c
	if n := h.take(out); n > 0 {
		c.wakeNotFullN(n)
		return n, nil
	}
	if c.closed.Load() && c.sending.Load() == 0 {
		// Final re-check: with the in-flight counter at zero after
		// close, every completed send's value is visible.
		if n := h.take(out); n > 0 {
			c.wakeNotFullN(n)
			return n, nil
		}
		c.met.Inc(metrics.CloseDrain)
		return 0, ErrClosed
	}
	return 0, nil
}

// RecvMany blocks until at least one value is available, then fills a
// prefix of out without waiting for more and returns its length. It
// never returns 0 with a nil error. After Close it keeps draining —
// the final values come back as a partial batch — and returns
// ErrClosed once nothing remains.
func (h *ChanHandle[T]) RecvMany(out []T) (int, error) {
	return h.RecvManyCtx(context.Background(), out)
}

// RecvManyCtx is RecvMany bounded by ctx: it returns ctx.Err() if the
// context expires while the buffer is still empty.
//
// This is the one blocking receive loop: Recv and RecvCtx run it over
// a batch of one. A receive that misses registers on notEmpty at once
// with PrepareXfer, so it is claimable from the moment it is listed:
// through the registered re-checks below and through the park itself.
// A sender that finds it delivers straight into the transfer cell,
// skipping the ring and the dequeue after the wake; a landed handoff
// satisfies the "at least one value" contract with out[0], since the
// claim protocol transfers exactly one value per registration. The
// invariant that keeps exactly-once: an armed receiver never touches
// the ring without first winning Disarm — a lost Disarm means a
// claimer owns the registration, and its token and cell value must be
// consumed.
func (h *ChanHandle[T]) RecvManyCtx(ctx context.Context, out []T) (int, error) {
	if len(out) == 0 {
		return 0, nil
	}
	c := h.c
	for {
		if n := h.take(out); n > 0 {
			c.wakeNotFullN(n)
			return n, nil
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		// Register claimable. From here until a won Disarm this
		// goroutine may not touch the ring.
		w := c.notEmpty.PrepareXfer(unsafe.Pointer(&h.rcell))
		// Re-check after registering (lost-wakeup protocol): a sender
		// that missed the registration must have enqueued first, which
		// this probe observes.
		if !c.core.Empty() || (c.closed.Load() && c.sending.Load() == 0) {
			if !w.Disarm() {
				// Lost the race to a claimer: the handoff owns this
				// registration now.
				<-w.Ready()
				out[0] = h.rcell
				c.notEmpty.Finish(w)
				return 1, nil
			}
			// Disarmed: exclusive use of the cell again, safe to touch
			// the ring.
			if n := h.take(out); n > 0 {
				c.notEmpty.Abort(w)
				c.wakeNotFullN(n)
				return n, nil
			}
			if c.closed.Load() && c.sending.Load() == 0 {
				// Final re-check: with the in-flight counter at zero
				// after close, every completed send's value is visible.
				if n := h.take(out); n > 0 {
					c.notEmpty.Abort(w)
					c.wakeNotFullN(n)
					return n, nil
				}
				c.notEmpty.Abort(w)
				// Nudge any sibling still parked so it re-evaluates the
				// drained state too.
				c.notEmpty.WakeAll()
				c.met.Inc(metrics.CloseDrain)
				return 0, ErrClosed
			}
			// The ring emptied again between the probe and the dequeue;
			// retire this registration and re-arm fresh.
			c.notEmpty.Abort(w)
			continue
		}
		select {
		case <-w.Ready():
			// Done before Finish: Finish recycles the waiter and resets
			// its transfer state.
			done := w.Done()
			if done {
				out[0] = h.rcell
			}
			c.notEmpty.Finish(w)
			if done {
				return 1, nil
			}
			// Plain (possibly forwarded) wake: loop and re-check.
		case <-ctx.Done():
			if c.notEmpty.Abort(w) {
				// The handoff landed before the abort: the value counts
				// as delivered, exactly once — return it, not the error.
				out[0] = h.rcell
				return 1, nil
			}
			return 0, ctx.Err()
		}
	}
}
