package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/queueapi"
	"repro/internal/queues"
	"repro/internal/stats"
)

// runBurstOnce drives one burst/drain cycle against a fresh queue:
// producers enqueue `burst` values as fast as they can (an unbounded
// queue absorbs all of them; a bounded one would shed), the peak
// Footprint is sampled at the top of the burst, and consumers then
// drain the queue empty. Each transferred value counts as two
// operations (enqueue + dequeue), keeping Mops comparable with the
// pairwise workload. This is the figure u1 engine: it measures the
// trade the unbounded queues make — absorb any burst, pay for it in
// live ring memory — and how little of it stays once the burst
// drains.
func runBurstOnce(name string, cfg queues.Config, burst int, opts PointOpts) (sample, error) {
	producers, consumers := EvenSplit(opts.Threads)
	if cfg.MaxThreads < producers+consumers+1 {
		cfg.MaxThreads = producers + consumers + 1
	}
	q, err := queues.New(name, cfg)
	if err != nil {
		return sample{}, err
	}

	perProducer := burst / producers
	if perProducer == 0 {
		perProducer = 1
	}
	total := perProducer * producers

	var wg sync.WaitGroup
	var barrier sync.WaitGroup
	barrier.Add(1)
	for p := 0; p < producers; p++ {
		h, herr := q.Handle()
		if herr != nil {
			return sample{}, herr
		}
		wg.Add(1)
		go func(seed uint64, h queueapi.Handle) {
			defer wg.Done()
			barrier.Wait()
			rng := seed*2654435761 + 1
			for i := 0; i < perProducer; i++ {
				rng = xorshift(rng)
				for !h.Enqueue(rng) {
					// Unbounded queues never take this branch; it keeps
					// the workload honest for bounded comparators.
					runtime.Gosched()
				}
			}
		}(uint64(p)+1, h)
	}
	start := time.Now()
	barrier.Done()
	wg.Wait() // burst fully buffered

	// The whole burst is live right now: this is the figure's memory
	// axis — peak retained bytes as a function of burst size.
	peakMB := float64(q.Footprint()) / (1 << 20)

	var dg sync.WaitGroup
	var drained atomic.Int64
	for c := 0; c < consumers; c++ {
		h, herr := q.Handle()
		if herr != nil {
			return sample{}, herr
		}
		dg.Add(1)
		go func(h queueapi.Handle) {
			defer dg.Done()
			for drained.Load() < int64(total) {
				if _, ok := h.Dequeue(); ok {
					drained.Add(1)
					continue
				}
				runtime.Gosched()
			}
		}(h)
	}
	dg.Wait()
	elapsed := time.Since(start).Seconds()
	// Post-drain retention: with the burst gone, Footprint shows what
	// the queue keeps (one live ring plus any handle's spare) — the
	// bounded-memory half of the story.
	return sample{mops: stats.Mops(2*total, elapsed), memMB: peakMB, fpMB: footprintMB(q)}, nil
}
