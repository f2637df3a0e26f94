// Production-readiness stress tier: long-horizon scenarios that hunt
// the failure modes figure tables can't show — footprint creep across
// fill/drain cycles, and livelock under maximum-frequency contention.
// Lost, duplicated and reordered values under sustained mixed traffic
// are the checker's job (internal/checker.Run). The scenarios run
// three ways: scaled-down in the regular test suite, full-length
// behind the soak build tag (CI's soak-smoke job), and on demand via
// cmd/wcqstressd -scenario.
package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/queueapi"
	"repro/internal/queues"
)

// StressOpts sizes one stress scenario.
type StressOpts struct {
	// Threads is the total goroutine count (split half/half into
	// producers and consumers by EvenSplit; minimum one of each).
	Threads int
	// Duration is how long the scenario sustains load.
	Duration time.Duration
}

func (o StressOpts) withDefaults() StressOpts {
	if o.Threads < 2 {
		o.Threads = 2
	}
	if o.Duration <= 0 {
		o.Duration = time.Second
	}
	return o
}

// StressResult summarizes a completed stress scenario.
type StressResult struct {
	// Transfers is the number of values that made the full
	// enqueue→dequeue round trip.
	Transfers uint64
	// Cycles counts completed fill/drain cycles (memory_stress only).
	Cycles int
	// BaselineMB is the queue's Footprint() after the first drain —
	// the steady state the leak check holds every later drain to
	// (memory_stress only).
	BaselineMB float64
	// FootprintMB is the queue's Footprint() at the end of the run.
	FootprintMB float64
	// Elapsed is the measured scenario duration.
	Elapsed time.Duration
}

// StressScenarioNames lists the production-readiness scenarios in
// display order — the keys accepted by RunStress and by
// cmd/wcqstressd -scenario.
func StressScenarioNames() []string {
	return []string{"memory_stress", "high_frequency"}
}

// RunStress dispatches a named stress scenario against a queue.
func RunStress(scenario, name string, cfg queues.Config, opts StressOpts) (StressResult, error) {
	switch scenario {
	case "memory_stress":
		return MemoryStress(name, cfg, opts)
	case "high_frequency":
		return HighFrequency(name, cfg, opts)
	}
	return StressResult{}, fmt.Errorf("harness: unknown stress scenario %q (want one of %v)",
		scenario, StressScenarioNames())
}

// deadlineMask throttles deadline/stop polls in the stress hot loops:
// the check runs once per 256 iterations, cheap enough to vanish into
// the workload while bounding overshoot to microseconds.
const deadlineMask = 255

// stressConfig applies the shared scenario plumbing to a queue config:
// a default capacity and a thread budget covering every worker handle.
func stressConfig(cfg queues.Config, defaultCap uint64, threads int) queues.Config {
	if cfg.Capacity == 0 {
		cfg.Capacity = defaultCap
	}
	if cfg.MaxThreads < threads+2 {
		cfg.MaxThreads = threads + 2
	}
	return cfg
}

// MemoryStress drives repeated fill/drain cycles and holds every
// post-drain Footprint() to the steady state observed after the FIRST
// drain: a queue that retains memory proportionally to traffic (an
// outer-list leak in the unbounded compositions, an unfreed segment
// chain) walks through the bound within a few cycles, while one-time
// warm-up allocation is tolerated by construction.
func MemoryStress(name string, cfg queues.Config, opts StressOpts) (StressResult, error) {
	opts = opts.withDefaults()
	producers, consumers := EvenSplit(opts.Threads)
	q, err := queues.New(name, stressConfig(cfg, 1<<10, opts.Threads))
	if err != nil {
		return StressResult{}, err
	}
	// A cycle fills the queue to capacity, or an unbounded one deep
	// enough to grow its outer list.
	burst := int(q.Cap())
	if burst == 0 {
		burst = 4096
	}

	// Handles are allocated once and reused across cycles (sequential
	// reuse is safe; the census is per-handle, not per-goroutine).
	prodHandles := make([]queueapi.Handle, producers)
	consHandles := make([]queueapi.Handle, consumers)
	for p := range prodHandles {
		if prodHandles[p], err = q.Handle(); err != nil {
			return StressResult{}, err
		}
	}
	for c := range consHandles {
		if consHandles[c], err = q.Handle(); err != nil {
			return StressResult{}, err
		}
	}

	res := StressResult{}
	deadline := time.Now().Add(opts.Duration)
	start := time.Now()
	for cycle := 0; cycle == 0 || !time.Now().After(deadline); cycle++ {
		var filled, drained atomic.Uint64
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			share := burst / producers
			if p == 0 {
				share += burst % producers
			}
			wg.Add(1)
			go func(h queueapi.Handle, share int, seed uint64) {
				defer wg.Done()
				rng := seed*2654435761 + 1
				for i := 0; i < share; i++ {
					rng = xorshift(rng)
					if !h.Enqueue(rng) {
						break // bounded queue full: this cycle's fill is done
					}
					filled.Add(1)
				}
			}(prodHandles[p], share, uint64(cycle*producers+p)+1)
		}
		wg.Wait()
		for c := 0; c < consumers; c++ {
			wg.Add(1)
			go func(h queueapi.Handle) {
				defer wg.Done()
				for drained.Load() < filled.Load() {
					if _, ok := h.Dequeue(); ok {
						drained.Add(1)
						continue
					}
					runtime.Gosched()
				}
			}(consHandles[c])
		}
		wg.Wait()
		res.Transfers += drained.Load()
		res.Cycles++
		fp := footprintMB(q)
		if cycle == 0 {
			res.BaselineMB = fp
			continue
		}
		// The leak bound: a stable queue's post-drain footprint stays
		// within 2x the first-drain steady state, plus a quarter-MB
		// absolute floor so near-zero baselines don't divide away the
		// tolerance.
		if limit := res.BaselineMB*2 + 0.25; fp > limit {
			return res, fmt.Errorf(
				"harness: %s leaked: post-drain footprint %.3f MB after cycle %d, baseline %.3f MB (limit %.3f)",
				name, fp, cycle, res.BaselineMB, limit)
		}
	}
	res.FootprintMB = footprintMB(q)
	res.Elapsed = time.Since(start)
	return res, nil
}

// HighFrequency sustains maximum-rate pairwise traffic through a
// deliberately tiny ring — the regime where full/empty transitions
// dominate and every operation contends — and watches forward progress
// in fixed windows: two consecutive windows without a single completed
// transfer means livelock and fails the scenario.
func HighFrequency(name string, cfg queues.Config, opts StressOpts) (StressResult, error) {
	opts = opts.withDefaults()
	producers, consumers := EvenSplit(opts.Threads)
	q, err := queues.New(name, stressConfig(cfg, 64, opts.Threads))
	if err != nil {
		return StressResult{}, err
	}

	var transfers atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		h, herr := q.Handle()
		if herr != nil {
			return StressResult{}, herr
		}
		wg.Add(1)
		go func(h queueapi.Handle, seed uint64) {
			defer wg.Done()
			rng := seed*2654435761 + 1
			for i := 0; ; i++ {
				if i&deadlineMask == 0 && stop.Load() {
					return
				}
				rng = xorshift(rng)
				if !h.Enqueue(rng) {
					runtime.Gosched()
				}
			}
		}(h, uint64(p)+1)
	}
	for c := 0; c < consumers; c++ {
		h, herr := q.Handle()
		if herr != nil {
			return StressResult{}, herr
		}
		wg.Add(1)
		go func(h queueapi.Handle) {
			defer wg.Done()
			for i := 0; ; i++ {
				if i&deadlineMask == 0 && stop.Load() {
					return
				}
				if _, ok := h.Dequeue(); ok {
					transfers.Add(1)
				} else {
					runtime.Gosched()
				}
			}
		}(h)
	}

	// The watchdog: sample the transfer counter in fixed windows. The
	// window is generous (an eighth of the run, at least 50ms) so a
	// scheduler hiccup on a loaded CI host doesn't masquerade as
	// livelock; only two consecutive silent windows fail.
	window := opts.Duration / 8
	if window < 50*time.Millisecond {
		window = 50 * time.Millisecond
	}
	start := time.Now()
	last := uint64(0)
	var stalled time.Duration
	for time.Since(start) < opts.Duration {
		time.Sleep(window)
		now := transfers.Load()
		if now == last {
			stalled += window
			if stalled >= 2*window {
				stop.Store(true)
				wg.Wait()
				return StressResult{}, fmt.Errorf(
					"harness: %s livelocked: no transfers for %v at high frequency (total %d)",
					name, stalled, now)
			}
		} else {
			stalled = 0
		}
		last = now
	}
	stop.Store(true)
	wg.Wait()
	return StressResult{
		Transfers:   transfers.Load(),
		FootprintMB: footprintMB(q),
		Elapsed:     time.Since(start),
	}, nil
}
