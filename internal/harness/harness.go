// Package harness reproduces the wCQ paper's benchmark framework
// (§6, originally the YMC test framework extended with SCQ, CRTurn and
// wCQ): workload generators, throughput and memory measurement, and
// one sweep engine that runs and renders every figure of the
// evaluation as a line-up of queues along one axis.
//
// Differences from the paper's testbed are confined to this package
// and documented in ARCHITECTURE.md: goroutines instead of pinned pthreads,
// runtime heap sampling + cumulative allocation accounting instead of
// malloc probes, and an emulated-F&A mode standing in for PowerPC.
package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/queueapi"
	"repro/internal/queues"
	"repro/internal/stats"
)

// Workload enumerates the paper's benchmark loops.
type Workload uint8

const (
	// Pairwise: each thread alternates Enqueue and Dequeue in a tight
	// loop (Figs. 11b, 12b).
	Pairwise Workload = iota
	// Mixed: each op is Enqueue or Dequeue with probability 1/2
	// (Figs. 10b, 11c, 12c).
	Mixed
	// EmptyDeq: Dequeue in a tight loop on an empty queue (Figs. 11a,
	// 12a).
	EmptyDeq
)

// String names the workload as the figure tables do.
func (w Workload) String() string {
	switch w {
	case Pairwise:
		return "pairwise"
	case Mixed:
		return "50/50"
	case EmptyDeq:
		return "empty-dequeue"
	}
	return "?"
}

// PointOpts sizes one measurement point.
type PointOpts struct {
	Threads int
	Ops     int  // total operations across all threads
	Reps    int  // repetitions (the paper uses 10)
	Delays  bool // tiny random delays between ops (memory test)
	Memory  bool // sample heap usage
	// Batch > 1 drives the workload through queueapi.EnqueueBatch /
	// DequeueBatch in chunks of this size (native Batcher when the
	// queue has one, generic fallback otherwise). One batched call
	// counts as Batch operations.
	Batch int
	// Blocking drives the point through the blocking Send/Recv/Close
	// surface instead of the workload loop: Threads is split into
	// producers and consumers by BlockingSplit, producers send,
	// consumers drain until close. Requires a queue whose handles
	// implement queueapi.Waitable. Delays/Memory/Batch are ignored.
	Blocking bool
}

// Point is one (queue, sweep value) measurement. Threads is the swept
// thread or waiter count, or the fixed count of a burst, batch or load
// sweep, whose value Burst, Batch or Load carries.
type Point struct {
	Queue    string
	Threads  int
	Burst    int // burst size (burst figures only; 0 otherwise)
	Batch    int // batch size (batch figures only; 0 otherwise)
	Mops     stats.Summary
	MemoryMB float64 // peak memory consumed (cumulative static + heap)
	// FootprintMB is the queue's own Footprint() at the end of a run:
	// the construction-time allocation for the bounded queues (summed
	// over shards for the sharded Chan) and the post-run live
	// retention for the unbounded ones. Unlike MemoryMB it needs no
	// heap sampling, so every point carries it.
	FootprintMB float64
	// Load is the offered-load fraction of the queue's calibrated
	// closed-loop capacity (open-loop figure l1 only; 0 otherwise).
	Load float64
	// OfferedMops is the open-loop arrival rate Load resolved to, in
	// millions of transfers per second (l1 only).
	OfferedMops float64
	// Latency is the coordinated-omission-safe end-to-end latency
	// distribution in nanoseconds, merged across reps (l1 only; zero
	// Count otherwise), or the blocking-wait ladder (w1). For l1, Mops
	// summarizes the ACHIEVED transfer rate in Mtransfers/s rather
	// than the closed-loop op rate.
	Latency metrics.HistogramSnapshot
	// RepP99 is each rep's own Latency p99 in nanoseconds, in rep
	// order, for the reps that recorded latency: a gate can judge the
	// typical rep rather than the merged tail, which one stalled rep
	// decides alone.
	RepP99 []uint64
	Err    error // non-nil when the queue is unavailable (e.g. LCRQ under emulation)
}

// RunPoint measures one queue at one thread count.
func RunPoint(name string, cfg queues.Config, w Workload, opts PointOpts) Point {
	return repeat(Point{Queue: name, Threads: opts.Threads}, opts.Reps, func() (sample, error) {
		return runOnce(name, cfg, w, opts)
	})
}

// sample is one rep's measurement of a point.
type sample struct {
	mops, memMB, fpMB float64
	offeredMops       float64
	latency           metrics.HistogramSnapshot
}

// repeat is the rep loop every point runs through: it calls the
// point's one-rep measurement reps times (at least once) and folds the
// samples into pt. Mops is summarized across reps, memory and
// footprint keep their maxima, and latency histograms merge (tails
// want samples, not averages) beside each rep's own p99. The first
// failing rep sets pt.Err and ends the point.
func repeat(pt Point, reps int, once func() (sample, error)) Point {
	reps = max(reps, 1)
	mops := make([]float64, 0, reps)
	for rep := 0; rep < reps; rep++ {
		s, err := once()
		if err != nil {
			pt.Err = err
			return pt
		}
		mops = append(mops, s.mops)
		pt.MemoryMB = max(pt.MemoryMB, s.memMB)
		pt.FootprintMB = max(pt.FootprintMB, s.fpMB)
		pt.OfferedMops = s.offeredMops
		pt.Latency.Merge(s.latency)
		if s.latency.Count > 0 {
			pt.RepP99 = append(pt.RepP99, s.latency.Quantile(0.99))
		}
	}
	pt.Mops = stats.Summarize(mops)
	return pt
}

// footprintMB converts a queue's Footprint to the figure unit.
func footprintMB(q queueapi.Queue) float64 { return float64(q.Footprint()) / (1 << 20) }

// runOnce builds a fresh queue and drives one timed run.
func runOnce(name string, cfg queues.Config, w Workload, opts PointOpts) (sample, error) {
	if opts.Blocking {
		return runBlockingOnce(name, cfg, opts)
	}
	if cfg.MaxThreads < opts.Threads+1 {
		cfg.MaxThreads = opts.Threads + 1
	}
	q, err := queues.New(name, cfg)
	if err != nil {
		return sample{}, err
	}

	var baseline runtime.MemStats
	var sampler *memSampler
	if opts.Memory {
		runtime.GC()
		runtime.ReadMemStats(&baseline)
		sampler = startMemSampler()
	}

	perThread := opts.Ops / opts.Threads
	if perThread == 0 {
		perThread = 1
	}
	var wg sync.WaitGroup
	var barrier sync.WaitGroup
	barrier.Add(1)
	for t := 0; t < opts.Threads; t++ {
		h, herr := q.Handle()
		if herr != nil {
			return sample{}, herr
		}
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			barrier.Wait()
			rng := seed*2654435761 + 1
			if opts.Batch > 1 {
				runBatched(h, w, perThread, opts, rng)
				return
			}
			for i := 0; i < perThread; i++ {
				switch w {
				case Pairwise:
					h.Enqueue(rng)
					h.Dequeue()
					i++ // a pair is two operations
				case Mixed:
					rng = xorshift(rng)
					if rng&1 == 0 {
						h.Enqueue(rng)
					} else {
						h.Dequeue()
					}
				case EmptyDeq:
					h.Dequeue()
				}
				if opts.Delays {
					rng = xorshift(rng)
					spin(int(rng % 64))
				}
			}
		}(uint64(t) + 1)
	}
	start := time.Now()
	barrier.Done()
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	s := sample{mops: stats.Mops(opts.Ops, elapsed), fpMB: footprintMB(q)}
	if opts.Memory {
		peak := sampler.stop()
		var heapMB float64
		if peak > baseline.HeapAlloc {
			heapMB = float64(peak-baseline.HeapAlloc) / (1 << 20)
		}
		// Cumulative static/ring allocation (wCQ/SCQ: fixed; LCRQ/YMC:
		// grows with closed rings / segments) plus dynamic heap growth.
		s.memMB = float64(q.Footprint())/(1<<20) + heapMB
	}
	return s, nil
}

// runBatched is the batched twin of the scalar workload loop: the
// same op mix, issued in chunks of opts.Batch through the queueapi
// batch helpers. Operations are counted like the scalar loop counts
// attempts: each transferred value is one op, and a batch call that
// moves nothing (queue empty/full) still counts as one probe — so
// batched and scalar Mops stay comparable on the empty-heavy
// workloads.
func runBatched(h queueapi.Handle, w Workload, perThread int, opts PointOpts, rng uint64) {
	in := make([]uint64, opts.Batch)
	out := make([]uint64, opts.Batch)
	for i := range in {
		rng = xorshift(rng)
		in[i] = rng
	}
	for i := 0; i < perThread; {
		switch w {
		case Pairwise:
			i += max(queueapi.EnqueueBatch(h, in), 1)
			i += max(queueapi.DequeueBatch(h, out), 1)
		case Mixed:
			rng = xorshift(rng)
			if rng&1 == 0 {
				i += max(queueapi.EnqueueBatch(h, in), 1)
			} else {
				i += max(queueapi.DequeueBatch(h, out), 1)
			}
		case EmptyDeq:
			i += max(queueapi.DequeueBatch(h, out), 1)
		}
		if opts.Delays {
			rng = xorshift(rng)
			spin(int(rng % 64))
		}
	}
}

// EvenSplit derives a producer/consumer split from a total goroutine
// count: half produce, half consume (minimum one of each). The burst
// and open-loop workloads and wcqstressd's checker scenario use it.
func EvenSplit(threads int) (producers, consumers int) {
	producers = max(threads/2, 1)
	return producers, max(threads-producers, 1)
}

// xorshift is a tiny per-thread PRNG (no allocation, no locks).
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// spin busy-loops for n iterations — the paper's "tiny random delays".
//
//go:noinline
func spin(n int) {
	for i := 0; i < n; i++ {
		_ = i
	}
}

// memSampler polls HeapAlloc in the background during a run.
type memSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  atomic.Uint64
}

func startMemSampler() *memSampler {
	s := &memSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var ms runtime.MemStats
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > s.peak.Load() {
					s.peak.Store(ms.HeapAlloc)
				}
			}
		}
	}()
	return s
}

func (s *memSampler) stop() uint64 {
	close(s.stopc)
	<-s.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > s.peak.Load() {
		s.peak.Store(ms.HeapAlloc)
	}
	return s.peak.Load()
}
