package wfqueue

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ringcore"
)

func backends() []Backend {
	return []Backend{BackendWCQ, BackendSCQ, BackendSharded, BackendUnbounded, BackendShardedUnbounded}
}

func TestChanBasicsAllBackends(t *testing.T) {
	for _, b := range backends() {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			c, err := NewChan[int](16, 4, WithBackend(b))
			if err != nil {
				t.Fatal(err)
			}
			wantCap := uint64(16)
			if b == BackendUnbounded || b == BackendShardedUnbounded {
				wantCap = 0 // no bound; 16 became the ring size
			}
			if c.Cap() != wantCap {
				t.Fatalf("Cap() = %d, want %d", c.Cap(), wantCap)
			}
			h, err := c.Handle()
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Send(42); err != nil {
				t.Fatal(err)
			}
			if ok, err := h.TrySend(43); !ok || err != nil {
				t.Fatalf("TrySend = %v, %v", ok, err)
			}
			if v, err := h.Recv(); err != nil || v != 42 {
				t.Fatalf("Recv = %v, %v", v, err)
			}
			if v, ok, err := h.TryRecv(); !ok || err != nil || v != 43 {
				t.Fatalf("TryRecv = %v, %v, %v", v, ok, err)
			}
			if _, ok, err := h.TryRecv(); ok || err != nil {
				t.Fatalf("TryRecv on empty = %v, %v", ok, err)
			}
		})
	}
}

func TestChanCloseDrain(t *testing.T) {
	for _, b := range backends() {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			// Capacity 64 keeps even the sharded backend's per-home-shard
			// budget (64/4 = 16) above the 10 values buffered here.
			c, err := NewChan[int](64, 2, WithBackend(b))
			if err != nil {
				t.Fatal(err)
			}
			h, err := c.Handle()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if err := h.Send(i); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if !c.Closed() {
				t.Fatal("Closed() = false after Close")
			}
			if err := c.Close(); !errors.Is(err, ErrClosed) {
				t.Fatalf("second Close = %v", err)
			}
			if err := h.Send(99); !errors.Is(err, ErrClosed) {
				t.Fatalf("Send after Close = %v", err)
			}
			if ok, err := h.TrySend(99); ok || !errors.Is(err, ErrClosed) {
				t.Fatalf("TrySend after Close = %v, %v", ok, err)
			}
			// Receives drain the 10 buffered values, then report closed.
			for i := 0; i < 10; i++ {
				v, err := h.Recv()
				if err != nil || v != i {
					t.Fatalf("drain %d: %v, %v", i, v, err)
				}
			}
			if _, err := h.Recv(); !errors.Is(err, ErrClosed) {
				t.Fatalf("Recv after drain = %v", err)
			}
			if _, ok, err := h.TryRecv(); ok || !errors.Is(err, ErrClosed) {
				t.Fatalf("TryRecv after drain = %v, %v", ok, err)
			}
		})
	}
}

func TestChanSendCtxDeadlineOnFull(t *testing.T) {
	c, err := NewChan[int](2, 2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Handle()
	if err != nil {
		t.Fatal(err)
	}
	h.Send(1)
	h.Send(2) // full
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := h.SendCtx(ctx, 3); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SendCtx on full = %v", err)
	}
	// The timed-out value must not have been buffered.
	if v, _ := h.Recv(); v != 1 {
		t.Fatalf("got %d", v)
	}
	if v, _ := h.Recv(); v != 2 {
		t.Fatalf("got %d", v)
	}
	if _, ok, _ := h.TryRecv(); ok {
		t.Fatal("timed-out send left a value behind")
	}
}

func TestChanRecvCtxCancelOnEmpty(t *testing.T) {
	c, err := NewChan[int](4, 2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Handle()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Cancel once the receiver has verifiably parked (with a
		// bounded fallback — RecvCtx must return Canceled either way),
		// so the cancel-while-parked path is what actually runs rather
		// than whatever a fixed sleep happens to race against.
		deadline := time.Now().Add(5 * time.Second)
		for c.notEmpty.Waiters() == 0 && time.Now().Before(deadline) {
			time.Sleep(50 * time.Microsecond)
		}
		cancel()
	}()
	if _, err := h.RecvCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RecvCtx on empty = %v", err)
	}
}

func TestChanBlockedSendUnblockedByRecv(t *testing.T) {
	c, err := NewChan[int](2, 3)
	if err != nil {
		t.Fatal(err)
	}
	hs, _ := c.Handle()
	hr, _ := c.Handle()
	hs.Send(1)
	hs.Send(2)
	done := make(chan error, 1)
	go func() { done <- hs.Send(3) }()
	// Let the sender park, then free a slot.
	waitParked(t, &c.notFull)
	if v, err := hr.Recv(); err != nil || v != 1 {
		t.Fatalf("Recv = %v, %v", v, err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("blocked Send = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked sender never woke after a slot freed")
	}
}

func TestChanParkedSenderStealsKeptIndex(t *testing.T) {
	// A handle that both sends and receives keeps the index its Recv
	// freed when its last scalar operation was a send, instead of
	// returning it to the free-index ring. A sender parked on the full
	// Chan must still wake and take that index.
	for _, b := range []Backend{BackendWCQ, BackendSCQ} {
		t.Run(b.String(), func(t *testing.T) {
			c, err := NewChan[int](2, 2, WithBackend(b))
			if err != nil {
				t.Fatal(err)
			}
			hs, _ := c.Handle()
			ha, _ := c.Handle()
			if err := ha.Send(10); err != nil {
				t.Fatal(err)
			}
			if v, err := ha.Recv(); err != nil || v != 10 {
				t.Fatalf("Recv = %v, %v", v, err)
			}
			// ha keeps one of the two indices; the second send fits
			// only by stealing it.
			for _, v := range []int{1, 2} {
				if ok, err := hs.TrySend(v); !ok || err != nil {
					t.Fatalf("TrySend(%d) = %v, %v on a Chan with room", v, ok, err)
				}
			}
			if ok, _ := ha.TrySend(3); ok {
				t.Fatal("TrySend into a full Chan succeeded")
			}
			done := make(chan error, 1)
			go func() { done <- hs.Send(4) }()
			waitParked(t, &c.notFull)
			if v, err := ha.Recv(); err != nil || v != 1 {
				t.Fatalf("Recv = %v, %v", v, err)
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("parked Send = %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("parked sender never took the index the receive kept")
			}
			for _, want := range []int{2, 4} {
				if v, err := ha.Recv(); err != nil || v != want {
					t.Fatalf("Recv = %v, %v, want %d", v, err, want)
				}
			}
		})
	}
}

func TestChanCloseUnblocksParkedSenderAndReceiver(t *testing.T) {
	c, err := NewChan[int](2, 3)
	if err != nil {
		t.Fatal(err)
	}
	hs, _ := c.Handle()
	hr, _ := c.Handle()
	hs.Send(1)
	hs.Send(2) // full
	sendErr := make(chan error, 1)
	recvErr := make(chan error, 1)
	go func() { sendErr <- hs.Send(3) }()
	waitParked(t, &c.notFull)
	// Park a receiver on a second chan to cover the empty side.
	c2, _ := NewChan[int](2, 2)
	h2, _ := c2.Handle()
	go func() { _, err := h2.Recv(); recvErr <- err }()
	waitParked(t, &c2.notEmpty)
	c.Close()
	c2.Close()
	for name, ch := range map[string]chan error{"send": sendErr, "recv": recvErr} {
		select {
		case err := <-ch:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("parked %s after Close = %v", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("parked %s never woke after Close", name)
		}
	}
	_ = hr
}

// waitParked spins until exactly one waiter is registered at p —
// i.e. the goroutine under test has actually parked (not just not
// run yet).
func waitParked(t *testing.T, p interface{ Waiters() int }) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("goroutine never parked")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestChanWakeupLatency asserts the acceptance bound: a parked Recv
// wakes in bounded time after Send — microseconds in practice, and
// far under the generous CI bound here — with no spin-polling in the
// facade (the receiver is verifiably parked before the send).
func TestChanWakeupLatency(t *testing.T) {
	c, err := NewChan[uint64](8, 2)
	if err != nil {
		t.Fatal(err)
	}
	hs, _ := c.Handle()
	hr, _ := c.Handle()
	const bound = 500 * time.Millisecond
	for i := 0; i < 10; i++ {
		recvAt := make(chan time.Time, 1)
		go func() {
			if _, err := hr.Recv(); err != nil {
				t.Error(err)
			}
			recvAt <- time.Now()
		}()
		waitParked(t, &c.notEmpty)
		start := time.Now()
		if err := hs.Send(uint64(i)); err != nil {
			t.Fatal(err)
		}
		lat := (<-recvAt).Sub(start)
		if lat > bound {
			t.Fatalf("sample %d: parked Recv took %v to wake (bound %v)", i, lat, bound)
		}
	}
}

// TestChanCloseCancelRace is the dedicated close/cancel race check:
// Close fires while N senders (half with expiring contexts) and M
// receivers (some with expiring contexts) are in flight. Accounting
// must balance exactly — every value whose Send returned nil is
// received exactly once, and no value whose Send errored is ever
// seen. Run with -race.
func TestChanCloseCancelRace(t *testing.T) {
	const (
		senders   = 4
		receivers = 4
	)
	for _, b := range backends() {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			c, err := NewChan[uint64](64, senders+receivers+1, WithBackend(b))
			if err != nil {
				t.Fatal(err)
			}
			var (
				wg       sync.WaitGroup
				mu       sync.Mutex
				sent     = map[uint64]int{}
				received = map[uint64]int{}
				sends    atomic.Uint64
			)
			for s := 0; s < senders; s++ {
				h, err := c.Handle()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(id uint64, h *ChanHandle[uint64], withCtx bool) {
					defer wg.Done()
					ok := make([]uint64, 0, 1024)
					defer func() {
						mu.Lock()
						for _, v := range ok {
							sent[v]++
						}
						mu.Unlock()
					}()
					for seq := uint64(0); ; seq++ {
						v := id<<32 | seq
						var err error
						if withCtx {
							ctx, cancel := context.WithTimeout(context.Background(), time.Duration(50+seq%200)*time.Microsecond)
							err = h.SendCtx(ctx, v)
							cancel()
						} else {
							err = h.Send(v)
						}
						switch {
						case err == nil:
							ok = append(ok, v)
							sends.Add(1)
						case errors.Is(err, ErrClosed):
							return
						case errors.Is(err, context.DeadlineExceeded):
							// Not sent; try the next sequence number.
						default:
							t.Errorf("sender %d: %v", id, err)
							return
						}
					}
				}(uint64(s), h, s%2 == 1)
			}
			for r := 0; r < receivers; r++ {
				h, err := c.Handle()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				// Receivers 0 and 1 drain unconditionally; the rest
				// use short contexts and retry, so cancelled waits
				// are exercised without abandoning the drain.
				go func(h *ChanHandle[uint64], withCtx bool) {
					defer wg.Done()
					got := make([]uint64, 0, 1024)
					defer func() {
						mu.Lock()
						for _, v := range got {
							received[v]++
						}
						mu.Unlock()
					}()
					for {
						var v uint64
						var err error
						if withCtx {
							ctx, cancel := context.WithTimeout(context.Background(), 100*time.Microsecond)
							v, err = h.RecvCtx(ctx)
							cancel()
						} else {
							v, err = h.Recv()
						}
						switch {
						case err == nil:
							got = append(got, v)
						case errors.Is(err, ErrClosed):
							return
						case errors.Is(err, context.DeadlineExceeded):
							// Empty for now; keep draining.
						default:
							t.Errorf("receiver: %v", err)
							return
						}
					}
				}(h, r >= 2)
			}
			// Close only after the mixed workload has verifiably moved
			// values through the queue (bounded fallback). A fixed
			// wall-clock sleep can close the queue before the race it
			// exists to exercise even starts on a loaded runner.
			deadline := time.Now().Add(5 * time.Second)
			for sends.Load() < 1000 && time.Now().Before(deadline) {
				time.Sleep(50 * time.Microsecond)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			if len(sent) != len(received) {
				t.Fatalf("sent %d distinct values, received %d", len(sent), len(received))
			}
			for v, n := range sent {
				if n != 1 {
					t.Fatalf("value %#x sent %d times", v, n)
				}
				if received[v] != 1 {
					t.Fatalf("value %#x sent once, received %d times (lost or duplicated)", v, received[v])
				}
			}
		})
	}
}

// hookHandle runs test code inside a core handle's scalar calls:
// beforeEnqueue before every Enqueue, onMiss once, after the first
// Dequeue that finds nothing.
type hookHandle[T any] struct {
	ringcore.Handle[T]
	beforeEnqueue, onMiss func()
}

func (h *hookHandle[T]) Enqueue(v T) bool {
	if h.beforeEnqueue != nil {
		h.beforeEnqueue()
	}
	return h.Handle.Enqueue(v)
}

func (h *hookHandle[T]) Dequeue() (T, bool) {
	v, ok := h.Handle.Dequeue()
	if f := h.onMiss; !ok && f != nil {
		h.onMiss = nil
		f()
	}
	return v, ok
}

// TestChanCloseDrainRetakesLateSend drives the interleaving the close
// drain's final re-take exists for, on every backend: a send passes
// the closed check before Close, and its value lands after a
// receive's first take missed but before that receive reads the
// in-flight count, which is zero by then. The receive must return the
// value, and only the next one ErrClosed.
func TestChanCloseDrainRetakesLateSend(t *testing.T) {
	for _, b := range backends() {
		t.Run(b.String(), func(t *testing.T) {
			c, err := NewChan[int](16, 2, WithBackend(b))
			if err != nil {
				t.Fatal(err)
			}
			hs, _ := c.Handle()
			hr, _ := c.Handle()
			atPut, release := make(chan struct{}), make(chan struct{})
			hs.h = &hookHandle[int]{Handle: hs.h, beforeEnqueue: func() {
				close(atPut)
				<-release
			}}
			sent := make(chan error, 1)
			go func() {
				ok, err := hs.TrySend(7)
				if !ok && err == nil {
					err = errors.New("TrySend found the buffer full")
				}
				sent <- err
			}()
			<-atPut // the send counts in flight and saw the Chan open
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			hr.h = &hookHandle[int]{Handle: hr.h, onMiss: func() {
				close(release)
				if err := <-sent; err != nil {
					t.Error(err)
				}
			}}
			if v, ok, err := hr.TryRecv(); v != 7 || !ok || err != nil {
				t.Fatalf("TryRecv = %v, %v, %v; want the late send's 7", v, ok, err)
			}
			if _, ok, err := hr.TryRecv(); ok || !errors.Is(err, ErrClosed) {
				t.Fatalf("TryRecv after drain = %v, %v", ok, err)
			}
		})
	}
}

// TestChanZeroAllocNonParking extends the cores' zero-allocation claim
// to the Chan facade: every operation that does not park — the Try
// calls, and the blocking calls while the buffer has room — allocates
// nothing, on every backend, with the metrics sink absent and
// attached. Scalar calls run as batches of one over per-handle
// scratch, so this also pins that the scratch never escapes.
func TestChanZeroAllocNonParking(t *testing.T) {
	const batch = 8
	pairs := []struct {
		name string
		op   func(h *ChanHandle[uint64], in, out []uint64)
	}{
		{"TrySend/TryRecv", func(h *ChanHandle[uint64], _, _ []uint64) {
			h.TrySend(42)
			h.TryRecv()
		}},
		{"TrySendMany/TryRecvMany", func(h *ChanHandle[uint64], in, out []uint64) {
			h.TrySendMany(in)
			h.TryRecvMany(out)
		}},
		{"Send/Recv", func(h *ChanHandle[uint64], _, _ []uint64) {
			h.Send(42)
			h.Recv()
		}},
		{"SendMany/RecvMany", func(h *ChanHandle[uint64], in, out []uint64) {
			h.SendMany(in)
			h.RecvMany(out)
		}},
	}
	for _, b := range backends() {
		for _, sink := range []*MetricsSink{nil, NewMetricsSink()} {
			label := "nometrics"
			if sink != nil {
				label = "metrics"
			}
			t.Run(b.String()+"/"+label, func(t *testing.T) {
				// 64 slots keep even a sharded home shard (64/4) above
				// the batch, so no send parks.
				c, err := NewChan[uint64](64, 2, WithBackend(b), WithMetrics(sink))
				if err != nil {
					t.Fatal(err)
				}
				h, err := c.Handle()
				if err != nil {
					t.Fatal(err)
				}
				in := make([]uint64, batch)
				out := make([]uint64, batch)
				for _, p := range pairs {
					// Warm the path (wCQ handles grow their batch scratch
					// once; an unbounded handle fills its view cache).
					p.op(h, in, out)
					if allocs := testing.AllocsPerRun(200, func() { p.op(h, in, out) }); allocs != 0 {
						t.Errorf("%s allocates %.1f objects/op, want 0", p.name, allocs)
					}
					if n, err := h.TryRecvMany(out); n != 0 || err != nil {
						t.Fatalf("%s left the buffer non-empty: %d, %v", p.name, n, err)
					}
				}
			})
		}
	}
}

func TestChanSCQBackendHasNoCensus(t *testing.T) {
	c, err := NewChan[int](8, 1, WithBackend(BackendSCQ))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ { // far beyond maxThreads
		if _, err := c.Handle(); err != nil {
			t.Fatalf("handle %d: %v", i, err)
		}
	}
}

func TestChanBackendString(t *testing.T) {
	for b, want := range map[Backend]string{BackendWCQ: "wCQ", BackendSCQ: "SCQ", BackendSharded: "Sharded", BackendUnbounded: "Unbounded", BackendShardedUnbounded: "ShardedUnbounded", Backend(99): "?"} {
		if got := b.String(); got != want {
			t.Fatalf("Backend(%d).String() = %q, want %q", b, got, want)
		}
	}
}

func TestChanInvalidConstruction(t *testing.T) {
	if _, err := NewChan[int](3, 2); err == nil {
		t.Fatal("non-power-of-two capacity accepted")
	}
	if _, err := NewChan[int](8, 2, WithBackend(Backend(99))); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

func ExampleChan() {
	c, _ := NewChan[string](8, 2)
	prod, _ := c.Handle()
	cons, _ := c.Handle()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			v, err := cons.Recv() // parks while empty, drains after Close
			if err != nil {
				return // ErrClosed: closed and drained
			}
			fmt.Println(v)
		}
	}()
	prod.Send("hello")
	prod.Send("world")
	c.Close()
	<-done
	// Output:
	// hello
	// world
}

func TestChanShardedConstructorValidation(t *testing.T) {
	// Four shards of at least two slots each: the total capacity must
	// be a power of two >= 8, and the error says so in this package's
	// words rather than the per-shard ones of the layer below.
	for _, c := range []struct {
		capacity uint64
		ok       bool
	}{{0, false}, {2, false}, {4, false}, {12, false}, {8, true}} {
		ch, err := NewChan[int](c.capacity, 2, WithBackend(BackendSharded))
		if c.ok {
			if err != nil || ch.Cap() != c.capacity {
				t.Errorf("NewChan(%d, BackendSharded): err = %v", c.capacity, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("NewChan(%d, BackendSharded) accepted", c.capacity)
		} else if !strings.HasPrefix(err.Error(), "wfqueue: ") || !strings.Contains(err.Error(), "power of two >= 8") {
			t.Errorf("NewChan(%d, BackendSharded): unhelpful error: %v", c.capacity, err)
		}
	}
	if _, err := NewChan[int](8, 0, WithBackend(BackendSharded)); err == nil {
		t.Error("NewChan(8, 0, BackendSharded) accepted zero maxThreads")
	}
}

func TestChanShardedCrossHandleVisibility(t *testing.T) {
	// A value sent through one handle's home shard is received through
	// a handle homed on another shard: receivers scan every shard.
	c, err := NewChan[int](32, 4, WithBackend(BackendSharded))
	if err != nil {
		t.Fatal(err)
	}
	producer, _ := c.Handle()
	consumer, _ := c.Handle()
	if err := producer.Send(7); err != nil {
		t.Fatal(err)
	}
	v, ok, err := consumer.TryRecv()
	if !ok || err != nil || v != 7 {
		t.Fatalf("cross-handle TryRecv got (%d, %v, %v), want 7", v, ok, err)
	}
}

func TestChanUnboundedRejectsZeroCapacity(t *testing.T) {
	// Every backend enforces the capacity contract; the unbounded one
	// must not silently substitute its default ring size for a zero.
	if _, err := NewChan[int](0, 2, WithBackend(BackendShardedUnbounded)); err == nil {
		t.Fatal("NewChan(0) accepted with the sharded-unbounded backend")
	}
	if _, err := NewChan[int](0, 2, WithBackend(BackendUnbounded)); err == nil {
		t.Fatal("capacity 0 accepted by the unbounded backend")
	}
}

// TestNewChanLeavesOptionSlice pins that NewChan only reads the
// caller's options: an option slice with spare capacity keeps every
// element, the spare ones included, on every backend.
func TestNewChanLeavesOptionSlice(t *testing.T) {
	for _, b := range backends() {
		spareCalled := false
		opts := make([]Option, 1, 2)
		opts[0] = WithBackend(b)
		opts[:cap(opts)][1] = func(*options) { spareCalled = true }
		if _, err := NewChan[int](16, 2, opts...); err != nil {
			t.Fatal(err)
		}
		opts[:cap(opts)][1](&options{})
		if !spareCalled {
			t.Fatalf("%v: NewChan wrote into the option slice's spare capacity", b)
		}
	}
}
