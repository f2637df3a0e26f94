package harness

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/atomicx"
	"repro/internal/metrics"
	"repro/internal/queues"
	"repro/internal/ringcore"
	"repro/internal/stats"
)

// Figure describes one plot of the paper's evaluation (§6) and how to
// regenerate it.
type Figure struct {
	ID       string // e.g. "11b"
	Title    string
	Workload Workload
	Threads  []int
	Mode     atomicx.Mode
	Queues   []string
	Delays   bool // tiny random delays (memory test)
	Memory   bool // report MB instead of Mops
	Blocking bool // drive the blocking Send/Recv/Close surface (Chan facades)
	// Bursts makes this a burst/drain figure (u1): the sweep axis is
	// burst size at a fixed thread count (Threads[0]), and every point
	// reports throughput AND peak live Footprint.
	Bursts []int
	// Batches makes this a batch-sweep figure (p2): the sweep axis is
	// batch size at a fixed thread count (Threads[0]). Batch size 1 is
	// the scalar loop; larger sizes drive the native batch reservation
	// path. Mops stays per-element, so the column reads directly as
	// the amortization win.
	Batches []int
	// Loads makes this an open-loop latency figure (l1): the sweep axis
	// is offered load as a fraction of each queue's calibrated
	// closed-loop capacity, at a fixed thread count (Threads[0]).
	// Points carry the CO-safe latency ladder; the knee sits at 1.0 by
	// construction, so the same fractions are comparable across queues
	// and hosts of any speed.
	Loads []float64
	// Arrival is the inter-arrival process for open-loop figures.
	Arrival Arrival
	// Waiters makes this a waiter-count figure (w1): the sweep axis is
	// the total blocking-goroutine count (1:3 send/recv split). Points
	// carry the blocking-wait ladder.
	Waiters []int
}

// Thread sweeps from the paper: x86 peaks at one 18-core socket then
// oversubscribes; PowerPC uses 64 logical cores.
var (
	x86Threads = []int{1, 2, 4, 8, 18, 36, 72, 144}
	ppcThreads = []int{1, 2, 4, 8, 16, 32, 64}
)

// x86Queues is the Fig. 10/11 line-up; ppcQueues drops LCRQ (needs
// CAS2), exactly as the paper does for PowerPC. scaleQueues is the
// post-paper scale-out line-up: the single-ring queues against their
// sharded composition, with FAA as the throughput ceiling.
// blockingQueues is the figure b1 line-up: the Chan facade over each
// supported backend. blockingThreads starts at 2 so every point has
// at least one producer and one consumer.
// burstSizes and burstRingCap shape figure u1: bursts from 4x to
// 256x the ring capacity, so every point exercises real outer-list
// turnover and the memory axis spans two orders of magnitude.
var (
	x86Queues       = []string{"FAA", "wCQ", "YMC", "CCQueue", "SCQ", "CRTurn", "MSQueue", "LCRQ"}
	ppcQueues       = []string{"FAA", "wCQ", "YMC", "CCQueue", "SCQ", "CRTurn", "MSQueue"}
	scaleQueues     = []string{"FAA", "wCQ", "SCQ", "Sharded"}
	blockingQueues  = queues.BlockingQueues() // keep the b1 line-up in lockstep with the registry
	blockingThreads = []int{2, 4, 8, 18, 36, 72}
	unboundedQueues = queues.UnboundedQueues() // keep the u1 line-up in lockstep with the registry
	burstSizes      = []int{1 << 12, 1 << 14, 1 << 16, 1 << 18}
	burstRingCap    = uint64(1 << 10)
	// batchQueues and batchSizes shape figure p2: every core with a
	// native single-F&A batch reservation, swept from the scalar loop
	// (batch 1) to far past the amortization knee.
	batchQueues = []string{"wCQ", "SCQ", "Sharded", "UWCQ"}
	batchSizes  = []int{1, 8, 32, 128}
	// openLoopQueues and loadFractions shape figure l1: every blocking
	// facade (their parked consumers are what open-loop latency is
	// about) plus the bare wCQ and SCQ rings on the nonblocking engine
	// path, swept from a quarter of calibrated capacity to just past
	// the saturation knee at 1.0.
	openLoopQueues = append(queues.BlockingQueues(), "wCQ", "SCQ")
	loadFractions  = []float64{0.25, 0.5, 0.75, 0.9, 1.1}
)

// Figures returns every figure of the evaluation in paper order.
func Figures() []Figure {
	return []Figure{
		{ID: "10a", Title: "Memory usage, x86 (MB)", Workload: Mixed, Threads: x86Threads,
			Mode: atomicx.NativeFAA, Queues: x86Queues, Delays: true, Memory: true},
		{ID: "10b", Title: "Memory test throughput, x86 (Mops/s)", Workload: Mixed, Threads: x86Threads,
			Mode: atomicx.NativeFAA, Queues: x86Queues, Delays: true},
		{ID: "11a", Title: "Empty dequeue, x86 (Mops/s)", Workload: EmptyDeq, Threads: x86Threads,
			Mode: atomicx.NativeFAA, Queues: x86Queues},
		{ID: "11b", Title: "Pairwise enqueue-dequeue, x86 (Mops/s)", Workload: Pairwise, Threads: x86Threads,
			Mode: atomicx.NativeFAA, Queues: x86Queues},
		{ID: "11c", Title: "50%/50% enqueue-dequeue, x86 (Mops/s)", Workload: Mixed, Threads: x86Threads,
			Mode: atomicx.NativeFAA, Queues: x86Queues},
		{ID: "12a", Title: "Empty dequeue, emulated PowerPC (Mops/s)", Workload: EmptyDeq, Threads: ppcThreads,
			Mode: atomicx.EmulatedFAA, Queues: ppcQueues},
		{ID: "12b", Title: "Pairwise enqueue-dequeue, emulated PowerPC (Mops/s)", Workload: Pairwise, Threads: ppcThreads,
			Mode: atomicx.EmulatedFAA, Queues: ppcQueues},
		{ID: "12c", Title: "50%/50% enqueue-dequeue, emulated PowerPC (Mops/s)", Workload: Mixed, Threads: ppcThreads,
			Mode: atomicx.EmulatedFAA, Queues: ppcQueues},
		// Beyond the paper: the sharded composition against the
		// single-ring queues it is built from (use -shards / -batch to
		// sweep the new dimensions).
		{ID: "s1", Title: "Sharded scale-out, pairwise (Mops/s)", Workload: Pairwise, Threads: x86Threads,
			Mode: atomicx.NativeFAA, Queues: scaleQueues},
		{ID: "s2", Title: "Sharded scale-out, 50%/50% (Mops/s)", Workload: Mixed, Threads: x86Threads,
			Mode: atomicx.NativeFAA, Queues: scaleQueues},
		// Blocking facade: throughput under a 1:3 producer:consumer
		// imbalance where idle consumers park instead of spinning
		// (cmd/wcqbench -blocking also reports wakeup latency).
		{ID: "b1", Title: "Blocking Chan, imbalanced 1:3 send/recv (Mops/s)", Workload: Pairwise, Threads: blockingThreads,
			Mode: atomicx.NativeFAA, Queues: blockingQueues, Blocking: true},
		// Unbounded burst absorption: enqueue a burst, sample the peak
		// live Footprint, drain. Sweeps burst size (not threads) and
		// reports both throughput and peak memory per point.
		{ID: "u1", Title: "Unbounded burst/drain: throughput and peak footprint vs burst size", Workload: Pairwise,
			Threads: []int{4}, Mode: atomicx.NativeFAA, Queues: unboundedQueues, Bursts: burstSizes},
		// Native batch reservation: per-element throughput vs batch
		// size. Batch 1 is the scalar path; the larger sizes pay one
		// Head/Tail F&A per batch instead of one per element.
		{ID: "p2", Title: "Native batch reservation: per-element throughput vs batch size (Mops/s)", Workload: Pairwise,
			Threads: []int{4}, Mode: atomicx.NativeFAA, Queues: batchQueues, Batches: batchSizes},
		// Open-loop latency vs offered load: Poisson arrivals at a
		// fraction of each queue's calibrated capacity, latency charged
		// from intended send time (coordinated-omission-safe). The p99
		// inflection as load crosses 1.0 is the saturation knee.
		{ID: "l1", Title: "Open-loop latency vs offered load (µs, CO-safe)", Workload: Pairwise,
			Threads: []int{4}, Mode: atomicx.NativeFAA, Queues: openLoopQueues,
			Loads: loadFractions, Arrival: Poisson},
		// Waiter pressure: from a handful of blocked goroutines to deep
		// oversubscription, with the blocking-wait ladder per point —
		// the cliff gate -smoke-wait reads.
		{ID: "w1", Title: "Blocking throughput and wait ladder vs waiter count", Workload: Pairwise,
			Threads: []int{8}, Mode: atomicx.NativeFAA, Queues: waitQueues, Blocking: true,
			Waiters: waiterCounts},
	}
}

// FigureByID looks a figure up ("10a" ... "12c").
func FigureByID(id string) (Figure, error) {
	for _, f := range Figures() {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("harness: unknown figure %q", id)
}

// RunOpts scales a figure run. The paper uses 10M ops x 10 reps per
// point; the defaults here are sized for a small machine and can be
// raised via flags.
type RunOpts struct {
	Ops        int
	Reps       int
	MaxThreads int // truncate the sweep (0 = full paper sweep)
	Queues     []string
	Shards     int           // shard count for the sharded compositions (0 = default)
	Ring       ringcore.Kind // ring kind inside the sharded compositions
	Batch      int           // batch size; > 1 drives the batched workload loop
	Capacity   uint64        // ring capacity (0 = the paper's 2^16)
	Emulate    bool          // force CAS-emulated F&A regardless of the figure's mode
	Core       *ringcore.Options
	// Metrics gives each point's queue a live metrics sink, so runs
	// measure the instrumented configuration (the overhead acceptance
	// check compares a figure with and without this set). Each point
	// gets a fresh sink; the ring-based queues record into it, the
	// external baselines ignore it.
	Metrics bool
	// Loads overrides an open-loop figure's load-fraction sweep
	// (cmd/wcqbench -loads).
	Loads []float64
	// Arrival overrides an open-loop figure's inter-arrival process
	// when not DefaultArrival (cmd/wcqbench -arrival).
	Arrival Arrival
	// Waiters overrides a waiter-count figure's goroutine-count sweep
	// (cmd/wcqbench -waiters) — how CI runs a miniature w1.
	Waiters []int
}

func (o RunOpts) withDefaults() RunOpts {
	if o.Ops <= 0 {
		o.Ops = 200_000
	}
	if o.Reps <= 0 {
		o.Reps = 3
	}
	return o
}

// Run executes the figure and returns all points (in queue-major
// order). Unavailable queues (LCRQ under emulation) produce points
// with Err set, rendered as "n/a" like the missing LCRQ lines in the
// paper's PowerPC plots.
func (f Figure) Run(opts RunOpts) []Point {
	opts = opts.withDefaults()
	qs := f.Queues
	if len(opts.Queues) > 0 {
		qs = intersect(f.Queues, opts.Queues)
	}
	if len(f.Bursts) > 0 {
		return f.runBursts(opts, qs)
	}
	if len(f.Batches) > 0 {
		return f.runBatches(opts, qs)
	}
	if len(f.Loads) > 0 {
		return f.runLoads(opts, qs)
	}
	if len(f.Waiters) > 0 {
		return f.runWaiters(opts, qs)
	}
	var pts []Point
	for _, name := range qs {
		for _, th := range f.Threads {
			if opts.MaxThreads > 0 && th > opts.MaxThreads {
				continue
			}
			cfg := queues.Config{
				Capacity:   1 << 16, // the paper's ring size for wCQ/SCQ
				MaxThreads: th + 1,
				Mode:       f.Mode,
				Shards:     opts.Shards,
				Ring:       opts.Ring,
				Core:       opts.Core,
			}
			if opts.Capacity > 0 {
				cfg.Capacity = opts.Capacity
			}
			if opts.Emulate {
				cfg.Mode = atomicx.EmulatedFAA
			}
			if opts.Metrics {
				cfg.Metrics = metrics.New()
			}
			pts = append(pts, RunPoint(name, cfg, f.Workload, PointOpts{
				Threads:  th,
				Ops:      opts.Ops,
				Reps:     opts.Reps,
				Delays:   f.Delays,
				Memory:   f.Memory,
				Batch:    opts.Batch,
				Blocking: f.Blocking,
			}))
		}
	}
	return pts
}

// fixedThreads is the fixed thread count a burst or batch figure runs
// at: Threads[0], clamped by -maxthreads. Run and Render share it so
// the header never mislabels a truncated run.
func (f Figure) fixedThreads(opts RunOpts) int {
	threads := f.Threads[0]
	if opts.MaxThreads > 0 && threads > opts.MaxThreads {
		threads = opts.MaxThreads
	}
	return threads
}

// runBursts executes a burst figure: the sweep axis is burst size at
// a fixed thread count, and each point reports throughput plus the
// peak live Footprint sampled at the top of the burst.
func (f Figure) runBursts(opts RunOpts, qs []string) []Point {
	threads := f.fixedThreads(opts)
	var pts []Point
	for _, name := range qs {
		for _, burst := range f.Bursts {
			cfg := queues.Config{
				Capacity:   burstRingCap, // per-ring for the unbounded line-up
				MaxThreads: threads + 1,
				Mode:       f.Mode,
				Shards:     opts.Shards,
				Ring:       opts.Ring,
				Core:       opts.Core,
			}
			if opts.Capacity > 0 {
				cfg.Capacity = opts.Capacity
			}
			if opts.Emulate {
				cfg.Mode = atomicx.EmulatedFAA
			}
			if opts.Metrics {
				cfg.Metrics = metrics.New()
			}
			pt := Point{Queue: name, Threads: threads, Burst: burst}
			reps := opts.Reps
			mops := make([]float64, 0, reps)
			for rep := 0; rep < reps; rep++ {
				m, mem, fp, err := runBurstOnce(name, cfg, burst, PointOpts{Threads: threads})
				if err != nil {
					pt.Err = err
					break
				}
				mops = append(mops, m)
				if mem > pt.MemoryMB {
					pt.MemoryMB = mem
				}
				if fp > pt.FootprintMB {
					pt.FootprintMB = fp
				}
			}
			if pt.Err == nil {
				pt.Mops = stats.Summarize(mops)
			}
			pts = append(pts, pt)
		}
	}
	return pts
}

// runBatches executes a batch-sweep figure: the sweep axis is batch
// size at a fixed thread count. Batch 1 drives the scalar loop (the
// baseline); larger sizes drive the native batch reservation through
// queueapi's Batcher fast path. Mops counts transferred elements, so
// points are directly comparable across batch sizes.
func (f Figure) runBatches(opts RunOpts, qs []string) []Point {
	threads := f.fixedThreads(opts)
	var pts []Point
	for _, name := range qs {
		for _, batch := range f.Batches {
			cfg := queues.Config{
				Capacity:   1 << 16,
				MaxThreads: threads + 1,
				Mode:       f.Mode,
				Shards:     opts.Shards,
				Ring:       opts.Ring,
				Core:       opts.Core,
			}
			if opts.Capacity > 0 {
				cfg.Capacity = opts.Capacity
			}
			if opts.Emulate {
				cfg.Mode = atomicx.EmulatedFAA
			}
			if opts.Metrics {
				cfg.Metrics = metrics.New()
			}
			pt := RunPoint(name, cfg, f.Workload, PointOpts{
				Threads: threads,
				Ops:     opts.Ops,
				Reps:    opts.Reps,
				Batch:   batch,
			})
			pt.Batch = batch
			pts = append(pts, pt)
		}
	}
	return pts
}

// loadSweep resolves an open-loop figure's effective sweep after
// RunOpts overrides. Run and Render share it so the rendered rows
// always match the points actually measured.
func (f Figure) loadSweep(opts RunOpts) ([]float64, Arrival) {
	loads := f.Loads
	if len(opts.Loads) > 0 {
		loads = opts.Loads
	}
	arrival := f.Arrival
	if opts.Arrival != DefaultArrival {
		arrival = opts.Arrival
	}
	if arrival == DefaultArrival {
		arrival = Poisson
	}
	return loads, arrival
}

// runLoads executes an open-loop figure: calibrate each queue's
// closed-loop capacity once, then sweep offered load as a fraction of
// it. Reps merge into one latency histogram per point (tails want
// samples, not averaging) while achieved throughput is summarized
// across reps like every other figure.
func (f Figure) runLoads(opts RunOpts, qs []string) []Point {
	threads := f.fixedThreads(opts)
	producers, consumers := EvenSplit(threads)
	loads, arrival := f.loadSweep(opts)
	var pts []Point
	for _, name := range qs {
		cfg := queues.Config{
			Capacity:   1 << 16,
			MaxThreads: threads + 2,
			Mode:       f.Mode,
			Shards:     opts.Shards,
			Ring:       opts.Ring,
			Core:       opts.Core,
		}
		if opts.Capacity > 0 {
			cfg.Capacity = opts.Capacity
		}
		if opts.Emulate {
			cfg.Mode = atomicx.EmulatedFAA
		}
		if opts.Metrics {
			cfg.Metrics = metrics.New()
		}
		blocking := queueIsBlocking(name, cfg)
		capacity, err := CalibrateCapacity(name, cfg, threads, opts.Ops, blocking)
		for _, load := range loads {
			pt := Point{Queue: name, Threads: threads, Load: load}
			if err != nil {
				pt.Err = err
				pts = append(pts, pt)
				continue
			}
			achieved := make([]float64, 0, opts.Reps)
			for rep := 0; rep < opts.Reps; rep++ {
				r, rerr := RunOpenLoop(name, cfg, OpenLoopOpts{
					Producers: producers,
					Consumers: consumers,
					Ops:       opts.Ops,
					Rate:      load * capacity,
					Arrival:   arrival,
				})
				if rerr != nil {
					pt.Err = rerr
					break
				}
				pt.OfferedMops = r.OfferedMops
				pt.Latency.Merge(r.Latency)
				achieved = append(achieved, r.AchievedMops)
				if r.FootprintMB > pt.FootprintMB {
					pt.FootprintMB = r.FootprintMB
				}
			}
			if pt.Err == nil {
				pt.Mops = stats.Summarize(achieved)
			}
			pts = append(pts, pt)
		}
	}
	return pts
}

// FormatLoadPoints renders an open-loop figure: one row per load
// fraction, two columns per queue — the p99 latency in microseconds
// (the knee axis) and the achieved transfer rate that goes flat once
// the queue saturates.
func FormatLoadPoints(pts []Point, loads []float64, queueNames []string) string {
	byKey := map[string]Point{}
	for _, p := range pts {
		byKey[fmt.Sprintf("%s/%.3f", p.Queue, p.Load)] = p
	}
	out := "load"
	for _, q := range queueNames {
		out += fmt.Sprintf("\t%s p99(µs)\t%s Mxfer/s", q, q)
	}
	out += "\n"
	for _, load := range loads {
		out += fmt.Sprintf("%.2f", load)
		for _, q := range queueNames {
			p, ok := byKey[fmt.Sprintf("%s/%.3f", q, load)]
			if !ok || p.Err != nil || p.Latency.Count == 0 {
				out += "\tn/a\tn/a"
				continue
			}
			out += fmt.Sprintf("\t%.1f\t%.3f", float64(p.Latency.Quantile(0.99))/1e3, p.Mops.Mean)
		}
		out += "\n"
	}
	return out
}

// FormatBatchPoints renders a batch figure's results: one row per
// batch size, one throughput column per queue — the per-element
// amortization curve of the native reservation path.
func FormatBatchPoints(pts []Point, batches []int, queueNames []string) string {
	byKey := map[string]Point{}
	for _, p := range pts {
		byKey[fmt.Sprintf("%s/%d", p.Queue, p.Batch)] = p
	}
	out := "batch"
	for _, q := range queueNames {
		out += fmt.Sprintf("\t%s", q)
	}
	out += "\n"
	for _, b := range batches {
		out += fmt.Sprintf("%d", b)
		for _, q := range queueNames {
			p, ok := byKey[fmt.Sprintf("%s/%d", q, b)]
			if !ok || p.Err != nil {
				out += "\tn/a"
				continue
			}
			out += fmt.Sprintf("\t%.3f", p.Mops.Mean)
		}
		out += "\n"
	}
	return out
}

// Render writes the figure header and table to w.
func (f Figure) Render(w io.Writer, pts []Point, opts RunOpts) {
	opts = opts.withDefaults()
	threads := f.Threads
	if opts.MaxThreads > 0 {
		threads = nil
		for _, t := range f.Threads {
			if t <= opts.MaxThreads {
				threads = append(threads, t)
			}
		}
	}
	qs := f.Queues
	if len(opts.Queues) > 0 {
		qs = intersect(f.Queues, opts.Queues)
	}
	if len(f.Bursts) > 0 {
		fmt.Fprintf(w, "Figure %s: %s (%d threads, %s)\n", f.ID, f.Title, f.fixedThreads(opts), f.Mode)
		io.WriteString(w, FormatBurstPoints(pts, f.Bursts, qs))
		return
	}
	if len(f.Batches) > 0 {
		fmt.Fprintf(w, "Figure %s: %s (%d threads, %s workload, %s)\n", f.ID, f.Title, f.fixedThreads(opts), f.Workload, f.Mode)
		io.WriteString(w, FormatBatchPoints(pts, f.Batches, qs))
		return
	}
	if len(f.Loads) > 0 {
		loads, arrival := f.loadSweep(opts)
		producers, consumers := EvenSplit(f.fixedThreads(opts))
		fmt.Fprintf(w, "Figure %s: %s (%d producers / %d consumers, %s arrivals, %s)\n",
			f.ID, f.Title, producers, consumers, arrival, f.Mode)
		io.WriteString(w, FormatLoadPoints(pts, loads, qs))
		return
	}
	if len(f.Waiters) > 0 {
		fmt.Fprintf(w, "Figure %s: %s (1:3 send/recv split, %s)\n", f.ID, f.Title, f.Mode)
		io.WriteString(w, FormatWaiterPoints(pts))
		return
	}
	fmt.Fprintf(w, "Figure %s: %s (%s workload, %s)\n", f.ID, f.Title, f.Workload, f.Mode)
	io.WriteString(w, FormatPoints(pts, threads, qs, f.Memory))
}

func intersect(all, wanted []string) []string {
	set := map[string]bool{}
	for _, w := range wanted {
		set[w] = true
	}
	var out []string
	for _, a := range all {
		if set[a] {
			out = append(out, a)
		}
	}
	return out
}

// SortPoints orders points by (queue, threads) for stable output.
func SortPoints(pts []Point) {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Queue != pts[j].Queue {
			return pts[i].Queue < pts[j].Queue
		}
		return pts[i].Threads < pts[j].Threads
	})
}
