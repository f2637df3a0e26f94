package wfqueue

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// NewUnbounded builds wCQ rings only; LSCQ growth is covered by the
// internal/unbounded tests that loop over every ring kind.
func TestUnboundedBasicsBothKinds(t *testing.T) {
	t.Run("UWCQ", func(t *testing.T) {
		q, err := NewUnbounded[string](4, WithRingCapacity(4))
		if err != nil {
			t.Fatal(err)
		}
		if q.RingCap() != 4 {
			t.Fatalf("RingCap() = %d", q.RingCap())
		}
		h, err := q.Handle()
		if err != nil {
			t.Fatal(err)
		}
		// Far beyond one ring: the queue must grow.
		for i := 0; i < 100; i++ {
			h.Enqueue("v")
		}
		if q.Rings() < 10 {
			t.Fatalf("Rings() = %d after 100 values in cap-4 rings", q.Rings())
		}
		for i := 0; i < 100; i++ {
			if _, ok := h.Dequeue(); !ok {
				t.Fatalf("missing value %d", i)
			}
		}
		if _, ok := h.Dequeue(); ok {
			t.Fatal("phantom value")
		}
	})
}

func TestUnboundedConstructorValidation(t *testing.T) {
	if _, err := NewUnbounded[int](0); err == nil {
		t.Fatal("maxThreads 0 accepted")
	}
	if _, err := NewUnbounded[int](4, WithRingCapacity(3)); err == nil {
		t.Fatal("non-power-of-two ring capacity accepted")
	}
}

func TestUnboundedHandleCensusWCQ(t *testing.T) {
	q, err := NewUnbounded[int](2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Handle(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Handle(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Handle(); err == nil {
		t.Fatal("third handle accepted with maxThreads 2 (wCQ census)")
	}
}

func TestUnboundedFootprintShrinksAfterBurst(t *testing.T) {
	// Retained memory must shrink once a burst drains: the post-drain
	// footprint is the documented bound, not the burst peak.
	q, err := NewUnbounded[uint64](2, WithRingCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Handle()
	if err != nil {
		t.Fatal(err)
	}
	rest := q.Footprint() // one ring at rest
	for i := uint64(0); i < 4096; i++ {
		h.Enqueue(i)
	}
	peak := q.Footprint()
	if peak < 10*rest {
		t.Fatalf("peak footprint %d did not grow over rest %d", peak, rest)
	}
	for i := uint64(0); i < 4096; i++ {
		if _, ok := h.Dequeue(); !ok {
			t.Fatalf("missing value %d", i)
		}
	}
	// One live ring plus at most one spare ring per handle (see
	// WithRingCapacity and Footprint); one handle here, so two rings.
	if got := q.Footprint(); got > 2*rest {
		t.Fatalf("retained %d B after drain (rest %d B), want at most one ring plus one spare", got, rest)
	}
}

func TestChanUnboundedSendNeverBlocks(t *testing.T) {
	c, err := NewChan[int](4, 2, WithBackend(BackendUnbounded))
	if err != nil {
		t.Fatal(err)
	}
	if c.Cap() != 0 {
		t.Fatalf("Cap() = %d, want 0 (unbounded)", c.Cap())
	}
	h, err := c.Handle()
	if err != nil {
		t.Fatal(err)
	}
	// Far beyond the ring size, on one goroutine with no receiver: a
	// bounded backend would park forever here.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			if err := h.Send(i); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("unbounded Send blocked")
	}
	for i := 0; i < 1000; i++ {
		v, err := h.Recv()
		if err != nil || v != i {
			t.Fatalf("Recv %d = %v, %v", i, v, err)
		}
	}
}

func TestChanUnboundedCloseDrainRace(t *testing.T) {
	// The job that caught two seed bugs in PR 2, pointed at the
	// unbounded backend: concurrent senders (some with expiring
	// contexts), receivers, and a Close racing the in-flight sends;
	// every Send that reported success must be received exactly once,
	// and every receiver must see ErrClosed eventually. Run with
	// -race -cpu 2,4.
	const (
		senders   = 3
		receivers = 3
		perSender = 2000
	)
	c, err := NewChan[uint64](8, senders+receivers, WithBackend(BackendUnbounded))
	if err != nil {
		t.Fatal(err)
	}

	var sent, received atomic.Int64
	delivered := make([]atomic.Int32, senders*perSender)
	var sg, rg sync.WaitGroup
	for s := 0; s < senders; s++ {
		h, err := c.Handle()
		if err != nil {
			t.Fatal(err)
		}
		sg.Add(1)
		go func(s int, h *ChanHandle[uint64]) {
			defer sg.Done()
			for i := 0; i < perSender; i++ {
				var err error
				if i%7 == 3 {
					ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
					err = h.SendCtx(ctx, uint64(s*perSender+i))
					cancel()
				} else {
					err = h.Send(uint64(s*perSender + i))
				}
				switch {
				case err == nil:
					sent.Add(1)
				case errors.Is(err, ErrClosed):
					return
				case errors.Is(err, context.DeadlineExceeded):
					// Unbounded sends cannot block on capacity, so the
					// deadline can only fire before the attempt; either
					// way the value was not buffered.
				default:
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}(s, h)
	}
	for r := 0; r < receivers; r++ {
		h, err := c.Handle()
		if err != nil {
			t.Fatal(err)
		}
		rg.Add(1)
		go func(h *ChanHandle[uint64]) {
			defer rg.Done()
			for {
				v, err := h.Recv()
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("receiver: %v", err)
					}
					return
				}
				if delivered[v].Add(1) != 1 {
					t.Errorf("value %d delivered twice", v)
				}
				received.Add(1)
			}
		}(h)
	}

	// Close while senders are (probably) still in flight: the drain
	// contract must hand every successfully sent value to a receiver
	// before any of them sees ErrClosed.
	time.Sleep(2 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	sg.Wait()
	rg.Wait()
	if sent.Load() != received.Load() {
		t.Fatalf("sent %d, received %d: close lost buffered values", sent.Load(), received.Load())
	}
}
