package wfqueue

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestPublicBatchRoundTrip drives the public batch surface of every
// nonblocking variant: whole batches in, contiguous FIFO out.
func TestPublicBatchRoundTrip(t *testing.T) {
	in := make([]int, 24)
	for i := range in {
		in[i] = i
	}
	check := func(t *testing.T, enq func([]int) int, deq func([]int) int) {
		t.Helper()
		if n := enq(in); n != len(in) {
			t.Fatalf("EnqueueBatch = %d, want %d", n, len(in))
		}
		out := make([]int, len(in))
		got := 0
		for got < len(in) {
			n := deq(out[got:])
			if n == 0 {
				t.Fatalf("lost values: drained %d of %d", got, len(in))
			}
			got += n
		}
		for i, v := range out {
			if v != in[i] {
				t.Fatalf("out[%d] = %d, want %d", i, v, in[i])
			}
		}
	}

	t.Run("Queue", func(t *testing.T) {
		q, err := New[int](64, 2)
		if err != nil {
			t.Fatal(err)
		}
		h, err := q.Handle()
		if err != nil {
			t.Fatal(err)
		}
		check(t, h.EnqueueBatch, h.DequeueBatch)
	})
	t.Run("LockFree", func(t *testing.T) {
		q, err := NewLockFree[int](64)
		if err != nil {
			t.Fatal(err)
		}
		h, err := q.Handle()
		if err != nil {
			t.Fatal(err)
		}
		check(t, h.EnqueueBatch, h.DequeueBatch)
	})
	// The sharded compositions are public only as Chan backends; their
	// nonblocking batch calls reach the shards' native batches.
	for _, c := range []struct {
		name     string
		backend  Backend
		capacity uint64
	}{
		// Home-shard capacity is total/shards; 256/4 = 64 >= the batch.
		{"Sharded", BackendSharded, 256},
		// Ring size 8 forces rollover inside the home shard mid-batch.
		{"ShardedUnbounded", BackendShardedUnbounded, 8},
	} {
		t.Run(c.name, func(t *testing.T) {
			ch, err := NewChan[int](c.capacity, 2, WithBackend(c.backend))
			if err != nil {
				t.Fatal(err)
			}
			h, err := ch.Handle()
			if err != nil {
				t.Fatal(err)
			}
			try := func(f func([]int) (int, error)) func([]int) int {
				return func(vs []int) int {
					n, err := f(vs)
					if err != nil {
						t.Fatal(err)
					}
					return n
				}
			}
			check(t, try(h.TrySendMany), try(h.TryRecvMany))
		})
	}
	t.Run("Unbounded", func(t *testing.T) {
		q, err := NewUnbounded[int](2, WithRingCapacity(8)) // force ring rollover mid-batch
		if err != nil {
			t.Fatal(err)
		}
		h, err := q.Handle()
		if err != nil {
			t.Fatal(err)
		}
		check(t, h.EnqueueBatch, h.DequeueBatch)
	})
}

// TestQueueBatchPartialOnFull pins the partial-success contract at the
// public boundary: a batch larger than the remaining capacity enqueues
// exactly the fitting prefix.
func TestQueueBatchPartialOnFull(t *testing.T) {
	q, err := New[int](8, 2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Handle()
	if err != nil {
		t.Fatal(err)
	}
	in := make([]int, 13)
	for i := range in {
		in[i] = i
	}
	if n := h.EnqueueBatch(in); n != 8 {
		t.Fatalf("EnqueueBatch into capacity 8 = %d, want 8", n)
	}
	out := make([]int, 16)
	if n := h.DequeueBatch(out); n != 8 {
		t.Fatalf("DequeueBatch = %d, want 8", n)
	}
	for i := 0; i < 8; i++ {
		if out[i] != i {
			t.Fatalf("out[%d] = %d, want %d (prefix property violated)", i, out[i], i)
		}
	}
}

// TestChanSendManyRecvMany covers the blocking batch surface on every
// backend: SendMany parks on full and completes, RecvMany returns
// whole or partial batches, and close-drain hands back the final
// partial batch before ErrClosed.
func TestChanSendManyRecvMany(t *testing.T) {
	for _, b := range backends() {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			c, err := NewChan[int](16, 4, WithBackend(b))
			if err != nil {
				t.Fatal(err)
			}
			tx, err := c.Handle()
			if err != nil {
				t.Fatal(err)
			}
			rx, err := c.Handle()
			if err != nil {
				t.Fatal(err)
			}
			const total = 100
			in := make([]int, total) // far beyond capacity: SendMany must park
			for i := range in {
				in[i] = i
			}
			done := make(chan error, 1)
			go func() {
				n, serr := tx.SendMany(in)
				if serr == nil && n != total {
					done <- errors.New("SendMany returned short without error")
					return
				}
				done <- serr
			}()
			got := 0
			out := make([]int, 7) // odd size: exercises partial windows
			for got < total {
				n, rerr := rx.RecvMany(out)
				if rerr != nil {
					t.Fatalf("RecvMany: %v", rerr)
				}
				if n == 0 {
					t.Fatal("RecvMany returned 0 with nil error")
				}
				for _, v := range out[:n] {
					if v != got {
						t.Fatalf("got %d, want %d (FIFO across parked batches)", v, got)
					}
					got++
				}
			}
			if err := <-done; err != nil {
				t.Fatalf("SendMany: %v", err)
			}

			// Close-drain: buffer a few values, close, then RecvMany
			// must return them as a partial batch before ErrClosed.
			if n, err := tx.TrySendMany([]int{1000, 1001, 1002}); err != nil || n != 3 {
				t.Fatalf("TrySendMany = (%d, %v)", n, err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			big := make([]int, 8)
			n, err := rx.RecvMany(big)
			if err != nil || n != 3 {
				t.Fatalf("RecvMany at close-drain = (%d, %v), want (3, nil)", n, err)
			}
			for i, want := range []int{1000, 1001, 1002} {
				if big[i] != want {
					t.Fatalf("drain[%d] = %d, want %d", i, big[i], want)
				}
			}
			if _, err := rx.RecvMany(big); !errors.Is(err, ErrClosed) {
				t.Fatalf("RecvMany after drain = %v, want ErrClosed", err)
			}
			if _, err := tx.SendMany([]int{1}); !errors.Is(err, ErrClosed) {
				t.Fatalf("SendMany after close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestChanSendManyEmpty pins the degenerate-batch contract: an empty
// SendMany returns immediately (it must not park or pin the in-flight
// send counter, which would wedge close-drain), and reports ErrClosed
// after Close like its scalar sibling.
func TestChanSendManyEmpty(t *testing.T) {
	c, err := NewChan[int](4, 2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Handle()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if n, err := h.SendMany(nil); n != 0 || err != nil {
			t.Errorf("SendMany(nil) = (%d, %v), want (0, nil)", n, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("SendMany(nil) blocked")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.SendMany(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("SendMany(nil) after close = %v, want ErrClosed", err)
	}
	// The counter was not pinned: a receiver sees the drained state.
	if _, err := h.RecvMany(make([]int, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("RecvMany after close = %v, want ErrClosed", err)
	}
}

// TestChanSendManyCtxExpiresWhileFull pins the cancellation contract:
// a batch blocked on a full buffer returns its delivered prefix with
// ctx.Err().
func TestChanSendManyCtxExpiresWhileFull(t *testing.T) {
	c, err := NewChan[int](4, 2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Handle()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	in := make([]int, 10)
	n, err := h.SendManyCtx(ctx, in)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if n != 4 {
		t.Fatalf("delivered prefix = %d, want 4 (the capacity)", n)
	}
}

// TestChanSendManyCloseRace closes the Chan while batch senders are
// parked mid-batch and verifies exactly-once delivery of every
// reported-sent value: delivered prefixes are fully received, nothing
// past a prefix ever shows up.
func TestChanSendManyCloseRace(t *testing.T) {
	for _, b := range backends() {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			c, err := NewChan[uint64](8, 8, WithBackend(b))
			if err != nil {
				t.Fatal(err)
			}
			const senders = 3
			sent := make([]int, senders) // delivered prefix per sender
			var sg sync.WaitGroup
			for s := 0; s < senders; s++ {
				h, herr := c.Handle()
				if herr != nil {
					t.Fatal(herr)
				}
				sg.Add(1)
				go func(s int, h *ChanHandle[uint64]) {
					defer sg.Done()
					batch := make([]uint64, 200)
					for i := range batch {
						batch[i] = uint64(s)<<32 | uint64(i)
					}
					n, serr := h.SendMany(batch)
					if serr == nil && n != len(batch) {
						t.Errorf("sender %d: short SendMany without error", s)
					}
					sent[s] = n
				}(s, h)
			}
			rx, err := c.Handle()
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[uint64]int)
			var rg sync.WaitGroup
			rg.Add(1)
			go func() {
				defer rg.Done()
				out := make([]uint64, 16)
				for {
					n, rerr := rx.RecvMany(out)
					if rerr != nil {
						return
					}
					for _, v := range out[:n] {
						got[v]++
					}
				}
			}()
			time.Sleep(5 * time.Millisecond) // let senders park mid-batch
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			sg.Wait()
			rg.Wait()
			for s := 0; s < senders; s++ {
				for i := 0; i < sent[s]; i++ {
					if got[uint64(s)<<32|uint64(i)] != 1 {
						t.Fatalf("sender %d value %d delivered %d times (prefix says sent)",
							s, i, got[uint64(s)<<32|uint64(i)])
					}
				}
				for v, n := range got {
					if int(v>>32) == s && int(v&0xffffffff) >= sent[s] && n > 0 {
						t.Fatalf("sender %d value %d delivered but past reported prefix %d",
							s, v&0xffffffff, sent[s])
					}
				}
			}
		})
	}
}
