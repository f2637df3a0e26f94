package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/queueapi"
)

// startWorkers launches the stress workload and returns a WaitGroup
// the caller waits on after signalling shutdown. Blocking queues
// (Closer + Waitable handles) get the producer/consumer split the
// blocking figures use, so the park points see real traffic;
// everything else gets pairwise nonblocking workers.
func (d *daemon) startWorkers() (*sync.WaitGroup, error) {
	var wg sync.WaitGroup
	_, blocking := d.q.(queueapi.Closer)
	if blocking {
		producers, consumers := harness.BlockingSplit(d.workers)
		for p := 0; p < producers; p++ {
			w, err := queueapi.WaitableHandle(d.q)
			if err != nil {
				return nil, err
			}
			wg.Add(1)
			go d.produce(&wg, p, w)
		}
		for c := 0; c < consumers; c++ {
			w, err := queueapi.WaitableHandle(d.q)
			if err != nil {
				return nil, err
			}
			wg.Add(1)
			go d.consume(&wg, producers+c, w)
		}
		return &wg, nil
	}
	for i := 0; i < d.workers; i++ {
		h, err := d.q.Handle()
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", i, err)
		}
		wg.Add(1)
		go d.pairwise(&wg, i, h)
	}
	return &wg, nil
}

// produce sends until the queue closes (shutdown closes it) or the
// stop flag trips between sends.
func (d *daemon) produce(wg *sync.WaitGroup, i int, w queueapi.Waitable) {
	defer wg.Done()
	slot, hist := &d.slots[i], d.hists[i]
	rng := uint64(i+1)*2654435761 + 1
	for n := uint64(0); !d.stop.Load(); n++ {
		rng = xorshift(rng)
		if n&latSampleMask == 0 {
			t := time.Now()
			if w.Send(rng) != nil {
				return
			}
			hist.Record(uint64(time.Since(t)))
		} else if w.Send(rng) != nil {
			return
		}
		slot.ops.Add(1)
	}
}

// consume receives until close-drain; the final ErrClosed is the
// normal exit.
func (d *daemon) consume(wg *sync.WaitGroup, i int, w queueapi.Waitable) {
	defer wg.Done()
	slot, hist := &d.slots[i], d.hists[i]
	for n := uint64(0); ; n++ {
		if n&latSampleMask == 0 {
			t := time.Now()
			if _, err := w.Recv(); err != nil {
				reportIfAbnormal(err)
				return
			}
			hist.Record(uint64(time.Since(t)))
		} else if _, err := w.Recv(); err != nil {
			reportIfAbnormal(err)
			return
		}
		slot.ops.Add(1)
	}
}

// pairwise drives a nonblocking queue in burst/drain cycles: enqueue
// up to a burst (or until full), then drain it back. Bursts push the
// unbounded queues across ring boundaries (seal/alloc traffic)
// and the bounded ones through full/empty transitions — the regimes
// the event counters exist to watch; a flat one-in-one-out loop would
// never leave the fast path.
func (d *daemon) pairwise(wg *sync.WaitGroup, i int, h queueapi.Handle) {
	defer wg.Done()
	const burst = 256
	slot, hist := &d.slots[i], d.hists[i]
	rng := uint64(i+1)*2654435761 + 1
	for !d.stop.Load() {
		// One timed scalar pair per cycle samples op latency.
		t := time.Now()
		rng = xorshift(rng)
		if h.Enqueue(rng) {
			if _, ok := h.Dequeue(); ok {
				hist.Record(uint64(time.Since(t)))
				slot.ops.Add(2)
			} else {
				// Another worker drained our value; the enqueue still
				// counted as one completed op.
				slot.ops.Add(1)
			}
		}
		pending := 0
		for ; pending < burst; pending++ {
			rng = xorshift(rng)
			if !h.Enqueue(rng) {
				break
			}
		}
		drained := 0
		for ; drained < pending; drained++ {
			if _, ok := h.Dequeue(); !ok {
				break
			}
		}
		slot.ops.Add(uint64(pending + drained))
		if pending == 0 {
			runtime.Gosched()
		}
	}
}

func reportIfAbnormal(err error) {
	if !errors.Is(err, queueapi.ErrClosed) {
		fmt.Printf("wcqstressd: worker error: %v\n", err)
	}
}

// xorshift is the same tiny PRNG the harness workloads use.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}
