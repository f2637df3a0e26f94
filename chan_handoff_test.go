package wfqueue

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestChanHandoffDeliversToParkedReceiver pins the receiver-side fast
// path on every backend and every send entry point, blocking or not:
// with a receiver verifiably parked on an empty Chan, the send must
// publish through the transfer cell (HandoffSend) rather than the
// ring, and the receiver gets the value.
func TestChanHandoffDeliversToParkedReceiver(t *testing.T) {
	sends := []struct {
		name string
		send func(h *ChanHandle[int], v int) error
	}{
		{"Send", (*ChanHandle[int]).Send},
		{"TrySend", func(h *ChanHandle[int], v int) error {
			if ok, err := h.TrySend(v); !ok || err != nil {
				return fmt.Errorf("TrySend = %v, %v", ok, err)
			}
			return nil
		}},
		{"TrySendMany", func(h *ChanHandle[int], v int) error {
			if n, err := h.TrySendMany([]int{v}); n != 1 || err != nil {
				return fmt.Errorf("TrySendMany = %d, %v", n, err)
			}
			return nil
		}},
	}
	for _, b := range backends() {
		t.Run(b.String(), func(t *testing.T) {
			for _, s := range sends {
				t.Run(s.name, func(t *testing.T) {
					c, err := NewChan[int](16, 2, WithBackend(b), WithMetrics(NewMetricsSink()))
					if err != nil {
						t.Fatal(err)
					}
					hs, _ := c.Handle()
					hr, _ := c.Handle()
					got := make(chan int, 1)
					go func() {
						v, err := hr.Recv()
						if err != nil {
							t.Error(err)
						}
						got <- v
					}()
					waitParked(t, &c.notEmpty)
					if err := s.send(hs, 41); err != nil {
						t.Fatal(err)
					}
					select {
					case v := <-got:
						if v != 41 {
							t.Fatalf("Recv = %d, want 41", v)
						}
					case <-time.After(5 * time.Second):
						t.Fatal("parked receiver never woke")
					}
					snap := c.Stats()
					if n := snap.Counts[metrics.HandoffSend]; n != 1 {
						t.Fatalf("HandoffSend = %d, want 1 (value crossed the ring instead)", n)
					}
				})
			}
		})
	}
}

// TestChanParkedSendKeepsFIFO pins the parked-sender path on the
// bounded single-ring backends: a Send parked on a full Chan is woken
// by the Recv that frees a slot, retries its enqueue, and its value
// arrives after the buffered ones, in order.
func TestChanParkedSendKeepsFIFO(t *testing.T) {
	const rounds = 20
	for _, b := range []Backend{BackendWCQ, BackendSCQ} {
		t.Run(b.String(), func(t *testing.T) {
			c, err := NewChan[int](2, 3, WithBackend(b))
			if err != nil {
				t.Fatal(err)
			}
			hs, _ := c.Handle()
			hr, _ := c.Handle()
			for round := 0; round < rounds; round++ {
				base := round * 10
				if err := hs.Send(base + 1); err != nil {
					t.Fatal(err)
				}
				if err := hs.Send(base + 2); err != nil {
					t.Fatal(err)
				}
				done := make(chan error, 1)
				go func() { done <- hs.Send(base + 3) }()
				waitParked(t, &c.notFull)
				for i := 1; i <= 3; i++ {
					v, err := hr.Recv()
					if err != nil || v != base+i {
						t.Fatalf("round %d: Recv = %v, %v; want %d (FIFO broken)", round, v, err, base+i)
					}
				}
				if err := <-done; err != nil {
					t.Fatalf("round %d: parked Send = %v", round, err)
				}
			}
		})
	}
}

// TestChanSendManyHandoffsToParkedReceivers pins the batch fast path:
// a SendMany arriving over k parked receivers satisfies up to k of
// them through their cells and rings the rest, with every value
// delivered exactly once.
func TestChanSendManyHandoffsToParkedReceivers(t *testing.T) {
	const parked, batch = 3, 5
	c, err := NewChan[int](16, parked+2, WithMetrics(NewMetricsSink()))
	if err != nil {
		t.Fatal(err)
	}
	hs, _ := c.Handle()
	var mu sync.Mutex
	got := map[int]int{}
	var wg sync.WaitGroup
	for i := 0; i < parked; i++ {
		h, _ := c.Handle()
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := h.Recv()
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			got[v]++
			mu.Unlock()
		}()
	}
	for c.notEmpty.Waiters() < parked {
		time.Sleep(50 * time.Microsecond)
	}
	vs := make([]int, batch)
	for i := range vs {
		vs[i] = 100 + i
	}
	n, err := hs.SendMany(vs)
	if err != nil || n != batch {
		t.Fatalf("SendMany = %d, %v", n, err)
	}
	wg.Wait()
	// The 3 parked receivers took 3 of the 5; the other 2 are ringed.
	hr, _ := c.Handle()
	for i := 0; i < batch-parked; i++ {
		v, err := hr.Recv()
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		got[v]++
		mu.Unlock()
	}
	for i := range vs {
		if got[100+i] != 1 {
			t.Fatalf("value %d delivered %d times", 100+i, got[100+i])
		}
	}
	snap := c.Stats()
	if n := snap.Counts[metrics.HandoffSend]; n < parked {
		t.Fatalf("HandoffSend = %d, want >= %d", n, parked)
	}
}

// stormEntry is one way of driving a Chan through the storm below. A
// nil ctx selects the entry's plain, deadline-free form.
type stormEntry struct {
	name string
	// batch bounds the values per send (each send carries 1..batch)
	// and sizes the receive buffer.
	batch int
	send  func(h *ChanHandle[uint64], ctx context.Context, vs []uint64) (int, error)
	recv  func(h *ChanHandle[uint64], ctx context.Context, out []uint64) (int, error)
}

// stormEntries covers every blocking entry point: the scalar calls
// and the batch calls.
var stormEntries = []stormEntry{
	{
		name:  "scalar",
		batch: 1,
		send: func(h *ChanHandle[uint64], ctx context.Context, vs []uint64) (int, error) {
			var err error
			if ctx == nil {
				err = h.Send(vs[0])
			} else {
				err = h.SendCtx(ctx, vs[0])
			}
			if err != nil {
				return 0, err
			}
			return 1, nil
		},
		recv: func(h *ChanHandle[uint64], ctx context.Context, out []uint64) (int, error) {
			var err error
			if ctx == nil {
				out[0], err = h.Recv()
			} else {
				out[0], err = h.RecvCtx(ctx)
			}
			if err != nil {
				return 0, err
			}
			return 1, nil
		},
	},
	{
		name:  "batch",
		batch: 4,
		send: func(h *ChanHandle[uint64], ctx context.Context, vs []uint64) (int, error) {
			if ctx == nil {
				return h.SendMany(vs)
			}
			return h.SendManyCtx(ctx, vs)
		},
		recv: func(h *ChanHandle[uint64], ctx context.Context, out []uint64) (int, error) {
			if ctx == nil {
				return h.RecvMany(out)
			}
			return h.RecvManyCtx(ctx, out)
		},
	},
}

// TestChanHandoffCloseCancelStorm is the handoff-focused close/cancel
// race: a receiver-heavy split on a small ring keeps the rendezvous
// path hot (most sends land in parked receivers' cells), senders mix
// plain and short-context sends, and Close fires mid-flight. Every
// value whose send reported success — including those mid-handoff at
// close time, and every value of a batch's delivered prefix — must be
// received exactly once. It runs once per entry style (stormEntries).
// Run with -race.
func TestChanHandoffCloseCancelStorm(t *testing.T) {
	for _, b := range backends() {
		t.Run(b.String(), func(t *testing.T) {
			for _, e := range stormEntries {
				t.Run(e.name, func(t *testing.T) { handoffStorm(t, b, e) })
			}
		})
	}
}

func handoffStorm(t *testing.T, b Backend, e stormEntry) {
	const (
		senders   = 2
		receivers = 6
	)
	c, err := NewChan[uint64](16, senders+receivers+1, WithBackend(b), WithMetrics(NewMetricsSink()))
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
			vs := make([]uint64, e.batch)
			seq := uint64(0)
			for i := 0; ; i++ {
				k := 1 + i%e.batch
				for j := range vs[:k] {
					vs[j] = id<<32 | seq
					seq++
				}
				var ctx context.Context
				cancel := context.CancelFunc(func() {})
				if withCtx {
					ctx, cancel = context.WithTimeout(context.Background(), time.Duration(50+i%200)*time.Microsecond)
				}
				n, err := e.send(h, ctx, vs[:k])
				cancel()
				// The delivered prefix counts whatever the error says.
				ok = append(ok, vs[:n]...)
				sends.Add(uint64(n))
				switch {
				case err == nil:
					if n != k {
						t.Errorf("sender %d: sent %d of %d with no error", id, n, k)
						return
					}
				case errors.Is(err, ErrClosed):
					return
				case errors.Is(err, context.DeadlineExceeded):
					// The rest was not sent; fresh values next.
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
		// Half the receivers use short contexts, so cancellation
		// races the in-flight claims this test exists for.
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
			out := make([]uint64, e.batch)
			for {
				var ctx context.Context
				cancel := context.CancelFunc(func() {})
				if withCtx {
					ctx, cancel = context.WithTimeout(context.Background(), 100*time.Microsecond)
				}
				n, err := e.recv(h, ctx, out)
				cancel()
				got = append(got, out[:n]...)
				switch {
				case err == nil:
					if n == 0 {
						t.Error("receiver: 0 values with no error")
						return
					}
				case errors.Is(err, ErrClosed):
					return
				case errors.Is(err, context.DeadlineExceeded):
					// Empty; keep draining.
				default:
					t.Errorf("receiver: %v", err)
					return
				}
			}
		}(h, r%2 == 1)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sends.Load() < 2000 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Microsecond)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for v, n := range sent {
		if n != 1 {
			t.Fatalf("value %#x sent %d times", v, n)
		}
		if received[v] != 1 {
			t.Fatalf("value %#x sent once, received %d times (lost or duplicated)", v, received[v])
		}
	}
	for v := range received {
		if sent[v] != 1 {
			t.Fatalf("value %#x received but never successfully sent", v)
		}
	}
	// The bounded backends must actually have exercised the fast
	// path. The unbounded ones legitimately may not: their senders
	// never block, so under full blast the queue is rarely empty
	// and receivers rarely park.
	if b != BackendUnbounded && b != BackendShardedUnbounded {
		snap := c.Stats()
		if snap.Handoffs() == 0 {
			t.Fatal("storm completed without a single handoff: the fast path never ran")
		}
	}
}
