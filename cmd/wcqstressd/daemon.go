package main

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/metrics"
	"repro/internal/pad"
	"repro/internal/queueapi"
)

// workerSlot is one worker's op counter on its own cache line, so the
// hot increment never contends with a neighbor or the scraper.
//
//wfq:padded
type workerSlot struct {
	ops atomic.Uint64
	_   [pad.CacheLineSize - 8]byte
}

// latSampleMask subsamples per-op latency measurement: one op in
// (latSampleMask+1) pays the two time.Now calls. The histogram still
// sees thousands of samples per second at stress rates, and the other
// ops run at full speed.
const latSampleMask = 7

// daemon owns the queue under stress and everything the exporters
// read: per-worker padded op counters, per-worker latency histograms
// (merged at scrape time — snapshots merge associatively), and the
// queue's own metrics sink reached through queueapi.Statser.
type daemon struct {
	name    string
	q       queueapi.Queue
	workers int
	start   time.Time
	slots   []workerSlot
	hists   []*metrics.Histogram
	stop    atomic.Bool
}

func newDaemon(name string, q queueapi.Queue, workers int) *daemon {
	d := &daemon{
		name:    name,
		q:       q,
		workers: workers,
		start:   time.Now(),
		slots:   make([]workerSlot, workers),
		hists:   make([]*metrics.Histogram, workers),
	}
	for i := range d.hists {
		d.hists[i] = metrics.NewHistogram()
	}
	return d
}

// ops sums the per-worker counters.
func (d *daemon) ops() uint64 {
	var t uint64
	for i := range d.slots {
		t += d.slots[i].ops.Load()
	}
	return t
}

// latency merges the per-worker op-latency histograms (nanoseconds).
func (d *daemon) latency() metrics.HistogramSnapshot {
	var out metrics.HistogramSnapshot
	for _, h := range d.hists {
		out.Merge(h.Snapshot())
	}
	return out
}

// stats snapshots the queue's internal metrics sink; queues without
// one (external baselines) report the zero snapshot.
func (d *daemon) stats() metrics.Snapshot {
	if s, ok := d.q.(queueapi.Statser); ok {
		return s.Stats()
	}
	return metrics.Snapshot{}
}

// rings reports the live linked-ring population of an unbounded queue
// (0 for bounded queues and queues that do not expose it).
func (d *daemon) rings() int {
	if r, ok := d.q.(interface{ Rings() int }); ok {
		return r.Rings()
	}
	return 0
}

// quantiles flattens a histogram snapshot into the fixed percentile
// set every exporter reports.
func quantiles(h metrics.HistogramSnapshot) map[string]uint64 {
	return map[string]uint64{
		"count": h.Count,
		"p50":   h.Quantile(0.50),
		"p90":   h.Quantile(0.90),
		"p99":   h.Quantile(0.99),
		"p999":  h.Quantile(0.999),
		"max":   h.Max,
	}
}

// vars is the expvar payload (published under the "wcqstressd" key on
// /debug/vars). Durations are nanoseconds, like the histograms record.
func (d *daemon) vars() any {
	snap := d.stats()
	events := make(map[string]uint64, metrics.NumEvents)
	snap.EachCount(func(event string, n uint64) { events[event] = n })
	return map[string]any{
		"queue":           d.name,
		"workers":         d.workers,
		"uptime_seconds":  time.Since(d.start).Seconds(),
		"ops_total":       d.ops(),
		"events":          events,
		"footprint_bytes": d.q.Footprint(),
		"rings":           d.rings(),
		"waiters":         snap.Waiters,
		"handoffs":        snap.Handoffs(),
		"handoff_rate":    snap.HandoffRate(),
		"op_latency_ns":   quantiles(d.latency()),
		"parked_ns":       quantiles(snap.Parked),
	}
}

// promText renders the Prometheus text exposition (format 0.0.4) for
// /metrics: ops and event counters, footprint/ring gauges, and the
// op-latency and parked-duration percentiles in seconds.
func (d *daemon) promText(w io.Writer) {
	snap := d.stats()
	fmt.Fprintf(w, "# HELP wcqstressd_ops_total Completed queue operations across all workers.\n")
	fmt.Fprintf(w, "# TYPE wcqstressd_ops_total counter\n")
	fmt.Fprintf(w, "wcqstressd_ops_total{queue=%q} %d\n", d.name, d.ops())
	fmt.Fprintf(w, "# HELP wcqstressd_events_total Internal queue events by kind (see internal/metrics).\n")
	fmt.Fprintf(w, "# TYPE wcqstressd_events_total counter\n")
	snap.EachCount(func(event string, n uint64) {
		fmt.Fprintf(w, "wcqstressd_events_total{queue=%q,event=%q} %d\n", d.name, event, n)
	})
	fmt.Fprintf(w, "# HELP wcqstressd_footprint_bytes Bytes the queue retains right now.\n")
	fmt.Fprintf(w, "# TYPE wcqstressd_footprint_bytes gauge\n")
	fmt.Fprintf(w, "wcqstressd_footprint_bytes{queue=%q} %d\n", d.name, d.q.Footprint())
	fmt.Fprintf(w, "# HELP wcqstressd_rings Live linked rings of an unbounded queue (0 when not applicable).\n")
	fmt.Fprintf(w, "# TYPE wcqstressd_rings gauge\n")
	fmt.Fprintf(w, "wcqstressd_rings{queue=%q} %d\n", d.name, d.rings())
	fmt.Fprintf(w, "# HELP wcqstressd_workers Stress worker goroutines.\n")
	fmt.Fprintf(w, "# TYPE wcqstressd_workers gauge\n")
	fmt.Fprintf(w, "wcqstressd_workers{queue=%q} %d\n", d.name, d.workers)
	fmt.Fprintf(w, "# HELP wcqstressd_uptime_seconds Seconds since the daemon started.\n")
	fmt.Fprintf(w, "# TYPE wcqstressd_uptime_seconds gauge\n")
	fmt.Fprintf(w, "wcqstressd_uptime_seconds{queue=%q} %g\n", d.name, time.Since(d.start).Seconds())
	fmt.Fprintf(w, "# HELP wcqstressd_waiters Goroutines currently parked on the queue's blocking facade.\n")
	fmt.Fprintf(w, "# TYPE wcqstressd_waiters gauge\n")
	fmt.Fprintf(w, "wcqstressd_waiters{queue=%q} %d\n", d.name, snap.Waiters)
	fmt.Fprintf(w, "# HELP wcqstressd_handoffs_total Values moved by the direct-handoff rendezvous fast path (sends into parked receivers).\n")
	fmt.Fprintf(w, "# TYPE wcqstressd_handoffs_total counter\n")
	fmt.Fprintf(w, "wcqstressd_handoffs_total{queue=%q} %d\n", d.name, snap.Handoffs())
	fmt.Fprintf(w, "# HELP wcqstressd_handoff_hit_rate Fraction of handoff attempts that moved a value past the ring, in [0, 1].\n")
	fmt.Fprintf(w, "# TYPE wcqstressd_handoff_hit_rate gauge\n")
	fmt.Fprintf(w, "wcqstressd_handoff_hit_rate{queue=%q} %g\n", d.name, snap.HandoffRate())
	promHistogram(w, d.name, "wcqstressd_op_latency_seconds",
		"Sampled per-operation latency.", d.latency())
	promHistogram(w, d.name, "wcqstressd_parked_seconds",
		"Time waiters spent parked.", snap.Parked)
}

// promHistogram writes one histogram as summary-style quantile gauges
// plus _count and _max, converting nanoseconds to seconds.
func promHistogram(w io.Writer, queue, name, help string, h metrics.HistogramSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s gauge\n", name)
	for _, q := range []struct {
		label string
		q     float64
	}{{"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}, {"0.999", 0.999}} {
		fmt.Fprintf(w, "%s{queue=%q,quantile=%q} %g\n",
			name, queue, q.label, float64(h.Quantile(q.q))/1e9)
	}
	fmt.Fprintf(w, "%s_count{queue=%q} %d\n", name, queue, h.Count)
	fmt.Fprintf(w, "%s_max{queue=%q} %g\n", name, queue, float64(h.Max)/1e9)
}

// snapshotFile packages one interval as a wcqbench/v1 record: the
// figure is "live", ops is the interval's completed-op count, and the
// throughput axes carry the interval rate. The same schema the bench
// writes, so trajectory tooling reads both.
func (d *daemon) snapshotFile(opsDelta uint64, dt time.Duration) benchfmt.File {
	f := benchfmt.New(int(opsDelta), 1)
	mops := 0.0
	if dt > 0 {
		mops = float64(opsDelta) / dt.Seconds() / 1e6
	}
	f.Points = []benchfmt.Point{{
		Figure:      "live",
		Queue:       d.name,
		Threads:     d.workers,
		MopsMin:     mops,
		MopsMean:    mops,
		FootprintMB: float64(d.q.Footprint()) / (1 << 20),
		// The cumulative sampled op-latency ladder, in the same
		// latency_us fields the bench's open-loop points carry, so one
		// reader plots both.
		Latency: benchfmt.NewLatencyUS(d.latency()),
	}}
	return f
}

// promString is promText into a string (tests and debugging).
func (d *daemon) promString() string {
	var b strings.Builder
	d.promText(&b)
	return b.String()
}
