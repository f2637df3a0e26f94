package harness

import (
	"cmp"
	"fmt"
	"io"
	"strings"

	"repro/internal/atomicx"
	"repro/internal/metrics"
	"repro/internal/queues"
	"repro/internal/ringcore"
)

// Axis is a figure's x-axis: what one row of its table varies.
type Axis uint8

const (
	// ThreadsAxis sweeps the goroutine count (Figs. 10-12, b1).
	ThreadsAxis Axis = iota
	// BurstAxis sweeps the values enqueued per burst/drain cycle (u1).
	BurstAxis
	// BatchAxis sweeps the batch size; 1 is the scalar loop (p2).
	BatchAxis
	// LoadAxis sweeps offered load as a fraction of each queue's
	// calibrated closed-loop capacity (l1).
	LoadAxis
	// WaitersAxis sweeps the total blocking-goroutine count (w1).
	WaitersAxis
)

// String names the axis as the table's row header does.
func (a Axis) String() string {
	return [...]string{"threads", "burst", "batch", "load", "waiters"}[a]
}

// Sweep is a figure's x-axis and the values it takes.
type Sweep struct {
	Axis   Axis
	Values []float64
}

// Figure describes one plot of the paper's evaluation (§6) and how to
// regenerate it: a line-up of queues measured along one sweep.
type Figure struct {
	ID       string // e.g. "11b"
	Title    string
	Workload Workload
	Mode     atomicx.Mode
	Queues   []string
	Sweep    Sweep
	// Threads is the fixed goroutine count of a burst, batch or load
	// sweep; on the threads and waiters axes each sweep value is the
	// count.
	Threads  int
	RingCap  uint64 // ring capacity (0 = the paper's 2^16)
	Delays   bool   // tiny random delays (memory test)
	Memory   bool   // report MB instead of Mops
	Blocking bool   // drive the blocking Send/Recv/Close surface (Chan facades)
}

// Thread sweeps from the paper: x86 peaks at one 18-core socket then
// oversubscribes; PowerPC uses 64 logical cores.
var (
	x86Threads = Sweep{ThreadsAxis, []float64{1, 2, 4, 8, 18, 36, 72, 144}}
	ppcThreads = Sweep{ThreadsAxis, []float64{1, 2, 4, 8, 16, 32, 64}}
)

// x86Queues is the Fig. 10/11 line-up; ppcQueues drops LCRQ (needs
// CAS2), exactly as the paper does for PowerPC. blockingQueues is the figure b1 line-up: the Chan facade over each
// supported backend. blockingThreads starts at 2 so every point has
// at least one producer and one consumer.
// burstSizes and burstRingCap shape figure u1: bursts from 4x to
// 256x the ring capacity, so every point exercises real outer-list
// turnover and the memory axis spans two orders of magnitude.
var (
	x86Queues       = []string{"FAA", "wCQ", "YMC", "CCQueue", "SCQ", "CRTurn", "MSQueue", "LCRQ"}
	ppcQueues       = []string{"FAA", "wCQ", "YMC", "CCQueue", "SCQ", "CRTurn", "MSQueue"}
	blockingQueues  = queues.BlockingQueues() // keep the b1 line-up in lockstep with the registry
	blockingThreads = Sweep{ThreadsAxis, []float64{2, 4, 8, 18, 36, 72}}
	unboundedQueues = queues.UnboundedQueues() // keep the u1 line-up in lockstep with the registry
	burstSizes      = Sweep{BurstAxis, []float64{1 << 12, 1 << 14, 1 << 16, 1 << 18}}
	burstRingCap    = uint64(1 << 10)
	// batchQueues and batchSizes shape figure p2: every core with a
	// native single-F&A batch reservation, swept from the scalar loop
	// (batch 1) to far past the amortization knee.
	batchQueues = []string{"wCQ", "SCQ", "UWCQ"}
	batchSizes  = Sweep{BatchAxis, []float64{1, 8, 32, 128}}
	// openLoopQueues and loadFractions shape figure l1: every blocking
	// facade (their parked consumers are what open-loop latency is
	// about) plus the bare wCQ and SCQ rings on the nonblocking engine
	// path, swept from a quarter of calibrated capacity to just past
	// the saturation knee at 1.0.
	openLoopQueues = append(queues.BlockingQueues(), "wCQ", "SCQ")
	loadFractions  = Sweep{LoadAxis, []float64{0.25, 0.5, 0.75, 0.9, 1.1}}
	// waitQueues and waiterCounts shape figure w1: the blocking facade
	// under waiter pressure, swept over the TOTAL goroutine count (far
	// past GOMAXPROCS, so "waiters" is the honest axis name). A
	// throughput collapse or a millisecond-scale tail at the high end
	// is the cliff the -smoke-wait gate exists to catch.
	waitQueues   = []string{"Chan", "ChanSharded"}
	waiterCounts = Sweep{WaitersAxis, []float64{8, 64, 256, 1024}}
	// waitRingCap keeps w1's rings small: the figure is about waiting,
	// not buffering, and a small ring makes the full/empty transitions
	// (hence the waits) frequent at every waiter count. At 4096 slots a
	// short run barely blocks at all and the wait ladder degenerates to
	// a handful of close-drain samples.
	waitRingCap = uint64(1 << 6)
)

// Figures returns every figure of the evaluation in paper order.
func Figures() []Figure {
	return []Figure{
		{ID: "10a", Title: "Memory usage, x86 (MB)", Workload: Mixed, Sweep: x86Threads,
			Mode: atomicx.NativeFAA, Queues: x86Queues, Delays: true, Memory: true},
		{ID: "10b", Title: "Memory test throughput, x86 (Mops/s)", Workload: Mixed, Sweep: x86Threads,
			Mode: atomicx.NativeFAA, Queues: x86Queues, Delays: true},
		{ID: "11a", Title: "Empty dequeue, x86 (Mops/s)", Workload: EmptyDeq, Sweep: x86Threads,
			Mode: atomicx.NativeFAA, Queues: x86Queues},
		{ID: "11b", Title: "Pairwise enqueue-dequeue, x86 (Mops/s)", Workload: Pairwise, Sweep: x86Threads,
			Mode: atomicx.NativeFAA, Queues: x86Queues},
		{ID: "11c", Title: "50%/50% enqueue-dequeue, x86 (Mops/s)", Workload: Mixed, Sweep: x86Threads,
			Mode: atomicx.NativeFAA, Queues: x86Queues},
		{ID: "12a", Title: "Empty dequeue, emulated PowerPC (Mops/s)", Workload: EmptyDeq, Sweep: ppcThreads,
			Mode: atomicx.EmulatedFAA, Queues: ppcQueues},
		{ID: "12b", Title: "Pairwise enqueue-dequeue, emulated PowerPC (Mops/s)", Workload: Pairwise, Sweep: ppcThreads,
			Mode: atomicx.EmulatedFAA, Queues: ppcQueues},
		{ID: "12c", Title: "50%/50% enqueue-dequeue, emulated PowerPC (Mops/s)", Workload: Mixed, Sweep: ppcThreads,
			Mode: atomicx.EmulatedFAA, Queues: ppcQueues},
		// Blocking facade: throughput under a 1:3 producer:consumer
		// imbalance where idle consumers park instead of spinning
		// (cmd/wcqbench -blocking also reports wakeup latency).
		{ID: "b1", Title: "Blocking Chan, imbalanced 1:3 send/recv (Mops/s)", Workload: Pairwise, Sweep: blockingThreads,
			Mode: atomicx.NativeFAA, Queues: blockingQueues, Blocking: true},
		// Unbounded burst absorption: enqueue a burst, sample the peak
		// live Footprint, drain. Sweeps burst size (not threads) and
		// reports both throughput and peak memory per point.
		{ID: "u1", Title: "Unbounded burst/drain: throughput and peak footprint vs burst size", Workload: Pairwise,
			Threads: 4, Mode: atomicx.NativeFAA, Queues: unboundedQueues, Sweep: burstSizes, RingCap: burstRingCap},
		// Native batch reservation: per-element throughput vs batch
		// size. Batch 1 is the scalar path; the larger sizes pay one
		// Head/Tail F&A per batch instead of one per element. Mops
		// stays per-element, so the column reads directly as the
		// amortization win.
		{ID: "p2", Title: "Native batch reservation: per-element throughput vs batch size (Mops/s)", Workload: Pairwise,
			Threads: 4, Mode: atomicx.NativeFAA, Queues: batchQueues, Sweep: batchSizes},
		// Open-loop latency vs offered load: Poisson arrivals at a
		// fraction of each queue's calibrated capacity, latency charged
		// from intended send time (coordinated-omission-safe). The p99
		// inflection as load crosses 1.0 is the saturation knee.
		{ID: "l1", Title: "Open-loop latency vs offered load (µs, CO-safe)", Workload: Pairwise,
			Threads: 4, Mode: atomicx.NativeFAA, Queues: openLoopQueues,
			Sweep: loadFractions},
		// Waiter pressure: from a handful of blocked goroutines to deep
		// oversubscription, with the blocking-wait ladder per point —
		// the cliff gate -smoke-wait reads.
		{ID: "w1", Title: "Blocking throughput and wait ladder vs waiter count", Workload: Pairwise,
			Mode: atomicx.NativeFAA, Queues: waitQueues, Blocking: true,
			Sweep: waiterCounts, RingCap: waitRingCap},
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
	MaxThreads int // drop larger thread/waiter counts, clamp a fixed count (0 = full sweep)
	Queues     []string
	Batch      int    // batch size; > 1 drives the batched workload loop
	Capacity   uint64 // ring capacity (0 = the figure's)
	// Core tunes every point's rings: wCQ's patience and help delay
	// (zero selects the paper's defaults), an emulated F&A mode that
	// replaces the figure's (the native zero value keeps the figure's
	// mode), and a sink that Metrics replaces.
	Core ringcore.Options
	// Metrics gives each point's queue a live metrics sink, so runs
	// measure the instrumented configuration (the overhead acceptance
	// check compares a figure with and without this set). Each rep of
	// each point gets a fresh sink; the ring-based queues record into
	// it, the external baselines ignore it.
	Metrics bool
	// Sweeps overrides a figure's sweep values on one axis:
	// cmd/wcqbench -loads sets LoadAxis, -waiters sets WaitersAxis (how
	// CI runs a miniature w1).
	Sweeps map[Axis][]float64
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

// Lineup is the figure's queue line-up under opts: the figure's queues
// in figure order, narrowed to opts.Queues when that is set.
func (f Figure) Lineup(opts RunOpts) []string {
	if len(opts.Queues) == 0 {
		return f.Queues
	}
	set := map[string]bool{}
	for _, w := range opts.Queues {
		set[w] = true
	}
	var out []string
	for _, q := range f.Queues {
		if set[q] {
			out = append(out, q)
		}
	}
	return out
}

// sweep is a figure's effective sweep under RunOpts. Run and Render
// share it, so the rendered rows and header always match the points
// measured.
type sweep struct {
	Sweep
	threads int // fixed goroutine count (burst, batch and load axes)
}

// resolve applies opts to the figure's sweep: an axis override from
// opts.Sweeps, and -maxthreads, which drops the thread or waiter
// counts above it and clamps any other axis's fixed goroutine count.
func (f Figure) resolve(opts RunOpts) sweep {
	s := sweep{Sweep: f.Sweep, threads: f.Threads}
	if v := opts.Sweeps[s.Axis]; len(v) > 0 {
		s.Values = v
	}
	if opts.MaxThreads <= 0 {
		return s
	}
	if s.Axis != ThreadsAxis && s.Axis != WaitersAxis {
		s.threads = min(s.threads, opts.MaxThreads)
		return s
	}
	var kept []float64
	for _, n := range s.Values {
		if int(n) <= opts.MaxThreads {
			kept = append(kept, n)
		}
	}
	s.Values = kept
	return s
}

// point is the empty point of queue name at sweep value x, carrying
// the sweep coordinates the table and the JSON key it by.
func (s sweep) point(name string, x float64) Point {
	p := Point{Queue: name, Threads: s.threads}
	switch s.Axis {
	case ThreadsAxis, WaitersAxis:
		p.Threads = int(x)
	case BurstAxis:
		p.Burst = int(x)
	case BatchAxis:
		p.Batch = int(x)
	case LoadAxis:
		p.Load = x
	}
	return p
}

// config builds the queues.Config of one rep at the given goroutine
// count: the figure's mode and ring size under the RunOpts overrides,
// with a fresh metrics sink when opts.Metrics is set or the figure
// reads its wait ladder from the sink (w1).
func (f Figure) config(opts RunOpts, threads int) queues.Config {
	cfg := queues.Config{
		Capacity:   cmp.Or(opts.Capacity, f.RingCap, 1<<16),
		MaxThreads: threads + 1,
		Core:       opts.Core,
	}
	if !cfg.Core.Mode.Emulated() {
		cfg.Core.Mode = f.Mode
	}
	if opts.Metrics || f.Sweep.Axis == WaitersAxis {
		cfg.Core.Metrics = metrics.New()
	}
	return cfg
}

// measure returns the axis's one-rep measurement for queue name: given
// a sweep value, it builds a fresh queue and runs it once. An
// open-loop sweep first calibrates the queue's closed-loop capacity,
// once per queue; its load fractions are fractions of that.
func (f Figure) measure(name string, s sweep, opts RunOpts) func(x float64) (sample, error) {
	switch s.Axis {
	case BurstAxis:
		return func(burst float64) (sample, error) {
			return runBurstOnce(name, f.config(opts, s.threads), int(burst), PointOpts{Threads: s.threads})
		}
	case LoadAxis:
		cfg := f.config(opts, s.threads)
		capacity, cerr := CalibrateCapacity(name, cfg, s.threads, opts.Ops, queueIsBlocking(name, cfg))
		producers, consumers := EvenSplit(s.threads)
		return func(load float64) (sample, error) {
			if cerr != nil {
				return sample{}, cerr
			}
			r, err := RunOpenLoop(name, f.config(opts, s.threads), OpenLoopOpts{
				Producers: producers,
				Consumers: consumers,
				Ops:       opts.Ops,
				Rate:      load * capacity,
			})
			return sample{mops: r.AchievedMops, fpMB: r.FootprintMB, offeredMops: r.OfferedMops, latency: r.Latency}, err
		}
	}
	// The closed-loop workload (the blocking one on b1 and w1) at a
	// swept thread, waiter or batch count.
	return func(x float64) (sample, error) {
		po := PointOpts{Threads: s.threads, Ops: opts.Ops, Delays: f.Delays, Memory: f.Memory, Batch: opts.Batch, Blocking: f.Blocking}
		if s.Axis == BatchAxis {
			po.Batch = int(x)
		} else {
			po.Threads = int(x)
		}
		cfg := f.config(opts, po.Threads)
		smp, err := runOnce(name, cfg, f.Workload, po)
		if s.Axis == WaitersAxis {
			smp.latency = cfg.Core.Metrics.Snapshot().Parked
		}
		return smp, err
	}
}

// Run executes the figure's sweep and returns all points in
// queue-major order. Unavailable queues (LCRQ under emulation) produce
// points with Err set, rendered as "n/a" like the missing LCRQ lines
// in the paper's PowerPC plots.
func (f Figure) Run(opts RunOpts) []Point {
	opts = opts.withDefaults()
	s := f.resolve(opts)
	var pts []Point
	for _, name := range f.Lineup(opts) {
		once := f.measure(name, s, opts)
		for _, x := range s.Values {
			pts = append(pts, repeat(s.point(name, x), opts.Reps, func() (sample, error) { return once(x) }))
		}
	}
	return pts
}

// column is one per-queue column of a figure table.
type column struct {
	head string // appended to the queue name in the header ("" = the bare name)
	cell func(Point) string
}

// columns is the column set each queue gets on the figure's axis.
func (f Figure) columns() []column {
	mops := func(p Point) string { return fmt.Sprintf("%.3f", p.Mops.Mean) }
	us := func(q float64) func(Point) string {
		return func(p Point) string { return fmt.Sprintf("%.1f", float64(p.Latency.Quantile(q))/1e3) }
	}
	switch f.Sweep.Axis {
	case BurstAxis: // both axes of the absorb-vs-retain trade
		return []column{{"Mops", mops}, {"peakMB", func(p Point) string { return fmt.Sprintf("%.3f", p.MemoryMB) }}}
	case LoadAxis: // the knee axis, and the achieved rate that flattens past it
		return []column{{"p99(µs)", us(0.99)}, {"Mxfer/s", mops}}
	case WaitersAxis:
		return []column{{"Mops/s", mops}, {"wait p50(µs)", us(0.50)}, {"wait p99(µs)", us(0.99)}, {"wait max(µs)", us(1)}}
	}
	if f.Memory {
		return []column{{"", func(p Point) string { return fmt.Sprintf("%.2f", p.MemoryMB) }}}
	}
	return []column{{"", mops}}
}

// Render writes the figure header and its table to w: one row per
// sweep value and, per queue, the axis's columns. An errored point's
// cells read "n/a", as does a point missing from pts, except on the
// threads axis, whose tables print a missing point as zeros; an
// open-loop point without latency samples is "n/a" too.
func (f Figure) Render(w io.Writer, pts []Point, opts RunOpts) {
	s := f.resolve(opts)
	var setup string
	switch s.Axis {
	case ThreadsAxis:
		setup = fmt.Sprintf("%s workload, %s", f.Workload, f.Mode)
	case BurstAxis:
		setup = fmt.Sprintf("%d threads, %s", s.threads, f.Mode)
	case BatchAxis:
		setup = fmt.Sprintf("%d threads, %s workload, %s", s.threads, f.Workload, f.Mode)
	case LoadAxis:
		producers, consumers := EvenSplit(s.threads)
		setup = fmt.Sprintf("%d producers / %d consumers, poisson arrivals, %s", producers, consumers, f.Mode)
	case WaitersAxis:
		setup = fmt.Sprintf("1:3 send/recv split, %s", f.Mode)
	}
	type key struct {
		queue                 string
		threads, burst, batch int
		load                  float64
	}
	keyOf := func(p Point) key { return key{p.Queue, p.Threads, p.Burst, p.Batch, p.Load} }
	byKey := map[key]Point{}
	for _, p := range pts {
		byKey[keyOf(p)] = p
	}
	qs, cols := f.Lineup(opts), f.columns()
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: %s (%s)\n%s", f.ID, f.Title, setup, s.Axis)
	for _, q := range qs {
		for _, c := range cols {
			b.WriteString("\t" + strings.TrimSpace(q+" "+c.head))
		}
	}
	for _, x := range s.Values {
		if s.Axis == LoadAxis {
			fmt.Fprintf(&b, "\n%.2f", x)
		} else {
			fmt.Fprintf(&b, "\n%d", int(x))
		}
		for _, q := range qs {
			p, ok := byKey[keyOf(s.point(q, x))]
			na := p.Err != nil || !ok && s.Axis != ThreadsAxis || s.Axis == LoadAxis && p.Latency.Count == 0
			for _, c := range cols {
				if na {
					b.WriteString("\tn/a")
				} else {
					b.WriteString("\t" + c.cell(p))
				}
			}
		}
	}
	b.WriteString("\n")
	io.WriteString(w, b.String())
}
