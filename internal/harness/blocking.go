package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/queueapi"
	"repro/internal/queues"
	"repro/internal/stats"
)

// BlockingSplit derives the producer/consumer role split for the
// blocking workload from a total goroutine count: one producer per
// four goroutines (minimum one of each), so consumers outnumber
// producers 3:1 — the imbalance the nonblocking workloads cannot
// express, because idle consumers park instead of spin-polling.
func BlockingSplit(threads int) (producers, consumers int) {
	producers = threads / 4
	if producers < 1 {
		producers = 1
	}
	consumers = threads - producers
	if consumers < 1 {
		consumers = 1
	}
	return producers, consumers
}

// runBlockingOnce builds a fresh blocking queue and drives one timed
// run: producers Send (parking on full), the queue is closed when
// they finish, and consumers Recv until the drain completes. Each
// transferred value counts as two operations (send + recv), keeping
// Mops comparable with the pairwise workload.
func runBlockingOnce(name string, cfg queues.Config, opts PointOpts) (sample, error) {
	producers, consumers := BlockingSplit(opts.Threads)
	if cfg.MaxThreads < producers+consumers+1 {
		cfg.MaxThreads = producers + consumers + 1
	}
	q, err := queues.New(name, cfg)
	if err != nil {
		return sample{}, err
	}
	closer, ok := q.(queueapi.Closer)
	if !ok {
		return sample{}, fmt.Errorf("harness: %s is not a blocking queue (no Close)", name)
	}

	perProducer := opts.Ops / (2 * producers)
	if perProducer == 0 {
		perProducer = 1
	}

	var prod, cons sync.WaitGroup
	var barrier sync.WaitGroup
	barrier.Add(1)
	errs := make(chan error, producers+consumers)
	for p := 0; p < producers; p++ {
		w, herr := queueapi.WaitableHandle(q)
		if herr != nil {
			return sample{}, herr
		}
		prod.Add(1)
		go func(seed uint64, w queueapi.Waitable) {
			defer prod.Done()
			barrier.Wait()
			rng := seed*2654435761 + 1
			for i := 0; i < perProducer; i++ {
				rng = xorshift(rng)
				if serr := w.Send(rng); serr != nil {
					errs <- serr
					return
				}
			}
		}(uint64(p)+1, w)
	}
	for c := 0; c < consumers; c++ {
		w, herr := queueapi.WaitableHandle(q)
		if herr != nil {
			return sample{}, herr
		}
		cons.Add(1)
		go func(w queueapi.Waitable) {
			defer cons.Done()
			barrier.Wait()
			for {
				if _, rerr := w.Recv(); rerr != nil {
					if !errors.Is(rerr, queueapi.ErrClosed) {
						errs <- rerr
					}
					return
				}
			}
		}(w)
	}

	start := time.Now()
	barrier.Done()
	prod.Wait()
	if cerr := closer.Close(); cerr != nil {
		return sample{}, cerr
	}
	cons.Wait()
	elapsed := time.Since(start).Seconds()
	select {
	case werr := <-errs:
		return sample{}, werr
	default:
	}
	return sample{mops: stats.Mops(2*producers*perProducer, elapsed), fpMB: footprintMB(q)}, nil
}

// WakeupLatency measures the blocking facade's parked-wakeup latency:
// a consumer blocks on Recv, the producer gives it time to park, then
// timestamps the moment of Send inside the payload itself; the sample
// is the delay until Recv returns with that payload. This is the
// latency cost of parking instead of spin-polling (figure b1's
// companion metric).
//
// Samples come back as a log-bucketed histogram in nanoseconds, so
// callers report tail percentiles (p99, p99.9, max) rather than a
// mean — wakeup latency is tail-dominated, and a mean over a few
// slow scheduler round-trips hides exactly the samples that matter.
func WakeupLatency(name string, cfg queues.Config, samples int) (metrics.HistogramSnapshot, error) {
	var zero metrics.HistogramSnapshot
	if cfg.MaxThreads < 3 {
		cfg.MaxThreads = 3
	}
	if cfg.Core.Metrics == nil {
		// The park counter below is how each Send waits for the
		// consumer to actually be parked, so the measurement needs a
		// sink even when the caller didn't ask for one.
		cfg.Core.Metrics = metrics.New()
	}
	q, err := queues.New(name, cfg)
	if err != nil {
		return zero, err
	}
	closer, ok := q.(queueapi.Closer)
	if !ok {
		return zero, fmt.Errorf("harness: %s is not a blocking queue", name)
	}
	sender, err := queueapi.WaitableHandle(q)
	if err != nil {
		return zero, err
	}
	receiver, err := queueapi.WaitableHandle(q)
	if err != nil {
		return zero, err
	}

	hist := metrics.NewHistogram()
	nanos := make(chan uint64, samples)
	done := make(chan error, 1)
	go func() {
		for {
			v, rerr := receiver.Recv()
			if rerr != nil {
				if errors.Is(rerr, queueapi.ErrClosed) {
					rerr = nil
				}
				done <- rerr
				return
			}
			// The payload is the send timestamp (UnixNano).
			nanos <- uint64(time.Now().UnixNano() - int64(v))
		}
	}()
	// Each Send must land while the consumer is parked — that is the
	// latency being measured. Instead of sleeping a fixed interval and
	// hoping (flaky on a loaded host: too short measures a receive
	// that never parked, too long wastes wall clock), watch the queue's own park
	// counter: it increments exactly when the consumer registers on the
	// empty-side park point, so "count advanced past the last sample's
	// baseline" is the event "consumer is parked again". The deadline
	// bounds a pathological scheduler stall; queues that somehow lack a
	// Statser fall back to the old fixed settle sleep.
	statser, hasStats := q.(queueapi.Statser)
	lastParks := uint64(0)
	for i := 0; i < samples; i++ {
		if hasStats {
			deadline := time.Now().Add(100 * time.Millisecond)
			for statser.Stats().Counts[metrics.Park] <= lastParks && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			lastParks = statser.Stats().Counts[metrics.Park]
		} else {
			time.Sleep(200 * time.Microsecond)
		}
		if serr := sender.Send(uint64(time.Now().UnixNano())); serr != nil {
			return zero, serr
		}
	}
	for n := 0; n < samples; n++ {
		hist.Record(<-nanos)
	}
	if cerr := closer.Close(); cerr != nil {
		return zero, cerr
	}
	if werr := <-done; werr != nil {
		return zero, werr
	}
	return hist.Snapshot(), nil
}
