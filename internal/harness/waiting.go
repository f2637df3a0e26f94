package harness

import (
	"fmt"

	"repro/internal/atomicx"
	"repro/internal/metrics"
	"repro/internal/queues"
	"repro/internal/stats"
)

// Figure w1 measures the blocking facade under waiter pressure: the
// same 1:3 send/recv blocking workload as b1, swept over the TOTAL
// goroutine count (far past GOMAXPROCS, so "waiters" is the honest
// axis name). Each point reports throughput and the blocking-wait
// latency ladder; a throughput collapse or a millisecond-scale tail at
// the high end is the cliff the -smoke-wait gate exists to catch.
var (
	waitQueues   = []string{"Chan", "ChanSharded"}
	waiterCounts = []int{8, 64, 256, 1024}
	// waitRingCap keeps w1's rings small: the figure is about waiting,
	// not buffering, and a small ring makes the full/empty transitions
	// (hence the waits) frequent at every waiter count. At 4096 slots a
	// short run barely blocks at all and the wait ladder degenerates to
	// a handful of close-drain samples.
	waitRingCap = uint64(1 << 6)
)

// runWaiters executes a waiter-count figure: for each queue, sweep the
// waiter count. Each point gets a fresh metrics sink (regardless of
// RunOpts.Metrics — the wait ladder IS the figure) and a fresh queue
// per rep; the sink accumulates across reps, like the open-loop
// latency merge.
func (f Figure) runWaiters(opts RunOpts, qs []string) []Point {
	waiters := f.Waiters
	if len(opts.Waiters) > 0 {
		waiters = opts.Waiters
	}
	var pts []Point
	for _, name := range qs {
		for _, n := range waiters {
			if opts.MaxThreads > 0 && n > opts.MaxThreads {
				continue
			}
			pt := Point{Queue: name, Threads: n}
			sink := metrics.New()
			cfg := queues.Config{
				Capacity:   waitRingCap,
				MaxThreads: n + 1,
				Mode:       f.Mode,
				Shards:     opts.Shards,
				Ring:       opts.Ring,
				Core:       opts.Core,
				Metrics:    sink,
			}
			if opts.Capacity > 0 {
				cfg.Capacity = opts.Capacity
			}
			if opts.Emulate {
				cfg.Mode = atomicx.EmulatedFAA
			}
			mops := make([]float64, 0, opts.Reps)
			for rep := 0; rep < opts.Reps; rep++ {
				m, _, fp, err := runBlockingOnce(name, cfg, PointOpts{Threads: n, Ops: opts.Ops})
				if err != nil {
					pt.Err = err
					break
				}
				mops = append(mops, m)
				if fp > pt.FootprintMB {
					pt.FootprintMB = fp
				}
			}
			if pt.Err == nil {
				pt.Mops = stats.Summarize(mops)
				pt.Latency = sink.Snapshot().Parked
			}
			pts = append(pts, pt)
		}
	}
	return pts
}

// FormatWaiterPoints renders a waiter-count figure in long format: one
// row per (queue, waiter count) with throughput and the blocking-wait
// ladder in microseconds.
func FormatWaiterPoints(pts []Point) string {
	out := "queue\twaiters\tMops/s\twait p50(µs)\tp99(µs)\tmax(µs)\n"
	for _, p := range pts {
		out += fmt.Sprintf("%s\t%d", p.Queue, p.Threads)
		if p.Err != nil {
			out += "\tn/a\tn/a\tn/a\tn/a\n"
			continue
		}
		out += fmt.Sprintf("\t%.3f\t%.1f\t%.1f\t%.1f\n",
			p.Mops.Mean,
			float64(p.Latency.Quantile(0.50))/1e3,
			float64(p.Latency.Quantile(0.99))/1e3,
			float64(p.Latency.Max)/1e3)
	}
	return out
}
