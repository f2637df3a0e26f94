package scq

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/atomicx"
)

// stall is how long runWatched waits for an operation to complete
// before it reports the ring hung.
const stall = 10 * time.Second

// runWatched runs work on a goroutine of its own and waits for it to
// return. work calls tick after each operation that made progress,
// and returns early once stopped reports true. When stall passes
// without a tick, runWatched fails the test: a ring that strands its
// values makes a polling loop spin forever, and the goroutine running
// it is left behind.
func runWatched(t *testing.T, work func(tick func(), stopped func() bool) error) {
	t.Helper()
	var ticks atomic.Uint64
	var stop atomic.Bool
	defer stop.Store(true)
	done := make(chan error, 1)
	go func() { done <- work(func() { ticks.Add(1) }, stop.Load) }()
	poll := time.NewTicker(50 * time.Millisecond)
	defer poll.Stop()
	last, since := ticks.Load(), time.Now()
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return
		case <-poll.C:
			if now := ticks.Load(); now != last {
				last, since = now, time.Now()
			} else if time.Since(since) > stall {
				t.Fatalf("no operation made progress for %v (%d before): the ring hung", stall, last)
			}
		}
	}
}

// TestBatchSingleFAA pins the whole point of the native batch path:
// one Tail F&A per fast-path enqueue batch and one Head F&A per
// dequeue batch, counted via the CountingFAA mode.
func TestBatchSingleFAA(t *testing.T) {
	q, err := NewRing(256, atomicx.CountingFAA)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]uint64, 32)
	for i := range in {
		in[i] = uint64(i)
	}
	tail0, head0 := q.tail.Adds(), q.head.Adds()
	q.EnqueueBatch(in)
	if got := q.tail.Adds() - tail0; got != 1 {
		t.Fatalf("EnqueueBatch(32) issued %d Tail F&As, want 1", got)
	}
	out := make([]uint64, 32)
	if n := q.DequeueBatch(out); n != 32 {
		t.Fatalf("DequeueBatch = %d, want 32", n)
	}
	if got := q.head.Adds() - head0; got != 1 {
		t.Fatalf("DequeueBatch(32) issued %d Head F&As, want 1", got)
	}
	for i, v := range out {
		if v != uint64(i) {
			t.Fatalf("out[%d] = %d, want %d (batch not contiguous FIFO)", i, v, i)
		}
	}
}

// TestDequeueBatchAbandonedRun pins the "0 means empty" contract in
// the state a partially-degraded EnqueueBatch leaves behind: a run of
// reserved-then-abandoned Tail tickets ahead of real values. A batch
// reservation landing entirely on the abandoned run sees only
// transient (retry) tickets; returning 0 there would read as "empty"
// to Chan's parking receivers and strand them with values buffered,
// so DequeueBatch must instead deliver at least one value.
func TestDequeueBatchAbandonedRun(t *testing.T) {
	q, err := NewRing(64, atomicx.NativeFAA)
	if err != nil {
		t.Fatal(err)
	}
	// Reserve and abandon 4 consecutive Tail tickets — exactly the
	// state the EnqueueBatch degrade path produces when a reserved
	// slot turns out unusable.
	q.tail.Add(4)
	const vals = 8
	for i := uint64(0); i < vals; i++ {
		q.Enqueue(i)
	}
	out := make([]uint64, 4)
	for expect := uint64(0); expect < vals; {
		n := q.DequeueBatch(out)
		if n == 0 {
			t.Fatalf("DequeueBatch returned 0 with %d values buffered", vals-expect)
		}
		for _, v := range out[:n] {
			if v != expect {
				t.Fatalf("got %d, want %d", v, expect)
			}
			expect++
		}
	}
}

// TestRingBatchFIFO verifies order and counts across repeated batches
// that wrap the ring. The values cycle through the ring's index range,
// [0, 64).
func TestRingBatchFIFO(t *testing.T) {
	q, err := NewRing(64, atomicx.NativeFAA)
	if err != nil {
		t.Fatal(err)
	}
	runWatched(t, func(tick func(), stopped func() bool) error {
		next := uint64(0)
		expect := uint64(0)
		out := make([]uint64, 48)
		for round := 0; round < 50; round++ {
			in := make([]uint64, 48)
			for i := range in {
				in[i] = next % 64
				next++
			}
			q.EnqueueBatch(in)
			tick()
			for got := 0; got < len(in) && !stopped(); {
				n := q.DequeueBatch(out[:len(in)-got])
				for _, v := range out[:n] {
					if v != expect%64 {
						return fmt.Errorf("round %d: got %d, want %d", round, v, expect%64)
					}
					expect++
				}
				if n > 0 {
					tick()
				}
				got += n
			}
		}
		return nil
	})
}
