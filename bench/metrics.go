package main

import (
	"slices"
)

// metricSpec is one reported metric. The end-to-end metrics come from
// the untraced reps; the per-layer ones, named after the module they
// describe, from the traced reps and the ladder, with -trace only.
type metricSpec struct {
	name, unit string
	perLayer   bool
}

var specs = []metricSpec{
	{"throughput_mops", "Mvalues/s", false},
	{"peak_footprint_mb", "MB", false},
	{"residual_footprint_mb", "MB", false},
	{"setup_s", "s", false},

	{"wcq.ring_ns", "ns", true},
	{"wcq.queue_ns", "ns", true},
	{"wcq.empty_dequeue_ns", "ns", true},
	{"wcq.enqueue_call_p50_ns", "ns", true},
	{"wcq.enqueue_call_p99_ns", "ns", true},
	{"wcq.dequeue_call_p50_ns", "ns", true},
	{"wcq.dequeue_call_p99_ns", "ns", true},
	{"wcq.dequeue_empty_ratio", "ratio", true},
	{"wcq.slow_path_per_mop", "count/Mop", true},
	{"wcq.threshold_resets_per_mop", "count/Mop", true},
	{"scq.queue_ns", "ns", true},
	{"unbounded.queue_ns", "ns", true},
	{"unbounded.enqueue_call_p99_ns", "ns", true},
	{"unbounded.ring_allocs_per_cycle", "count/cycle", true},
	{"unbounded.pool_hit_ratio", "ratio", true},
	{"unbounded.rings_peak", "count", true},
	{"park.parks_per_ktransfer", "count/ktransfer", true},
	{"park.wakes_per_ktransfer", "count/ktransfer", true},
	{"park.spurious_wake_ratio", "ratio", true},
	{"park.spin_hit_ratio", "ratio", true},
	{"park.parked_p50_us", "us", true},
	{"park.parked_p99_us", "us", true},
	{"chan.nowait_ns", "ns", true},
	{"chan.send_call_p50_ns", "ns", true},
	{"chan.send_call_p99_ns", "ns", true},
	{"chan.sendmany_call_p50_ns", "ns", true},
	{"chan.sendmany_call_p99_ns", "ns", true},
	{"chan.recv_call_p50_ns", "ns", true},
	{"chan.recv_call_p99_ns", "ns", true},
	{"chan.queue_wait_p50_us", "us", true},
	{"chan.handoff_rate", "ratio", true},
	{"metrics.sink_ns", "ns", true},
	{"metrics.trace_overhead_pct", "%", true},
	{"bench.generator_late_p99_us", "us", true},
	{"bench.latency_p50_us", "us", true},
	{"bench.latency_p99_us", "us", true},
	{"bench.latency_p999_us", "us", true},
	{"bench.rep_iqr_pct", "%", true},
	{"wfqueue.alloc_bytes_per_op", "B/op", true},
}

// tracedThroughput is the traced reps' throughput series, kept apart
// from the untraced one so the tracing overhead can be computed.
const tracedThroughput = "traced.throughput_mops"

// workloadRun accumulates one workload's reps.
type workloadRun struct {
	w                 *workload
	series            map[string][]float64 // one value per rep, or per ladder chunk
	attempted, failed uint64
	spans             []span // the last traced rep's, for the spans file
	sum               map[string]summary
}

func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// sorted gathers one sample slice from both workers, sorted.
func (b *bench) sorted(get func(w *worker) []int64) []int64 {
	s := slices.Concat(get(&b.workers[0]), get(&b.workers[1]))
	slices.Sort(s)
	return s
}

// durations returns the sorted durations of the recorded spans of kind k.
func (b *bench) durations(k spanKind) []int64 {
	var d []int64
	for i := range b.workers {
		for _, s := range b.workers[i].spans {
			if s.kind == k {
				d = append(d, s.end-s.start)
			}
		}
	}
	slices.Sort(d)
	return d
}

// queueWait returns, sorted, how long each traced transfer waited in
// the queue: from its enqueue-side call's return to its dequeue-side
// call's return.
func (b *bench) queueWait(w *workload) []int64 {
	enqEnd := map[uint64]int64{}
	for i := range b.workers {
		for _, s := range b.workers[i].spans {
			if s.kind == w.enq {
				enqEnd[s.id] = s.end
			}
		}
	}
	var d []int64
	for i := range b.workers {
		for _, s := range b.workers[i].spans {
			if e, ok := enqEnd[s.id]; ok && s.kind == w.deq {
				d = append(d, s.end-e)
			}
		}
	}
	slices.Sort(d)
	return d
}

// measure adds one rep's values to its workload's series. Metrics of a
// layer the workload does not call read 0.
func (b *bench) measure(run *workloadRun, r *rep) {
	add := func(name string, v float64) { run.series[name] = append(run.series[name], v) }
	mops := float64(r.delivered) / (float64(r.end-r.t0) / 1e9) / 1e6
	if !r.traced {
		lat := b.sorted(func(w *worker) []int64 { return w.lat })
		add("throughput_mops", mops)
		add("bench.latency_p50_us", us(nearestRank(lat, 0.5)))
		add("peak_footprint_mb", float64(r.peakFP)/1e6)
		add("residual_footprint_mb", r.residualFP/1e6)
		setups := make([]float64, len(r.setups))
		for i, d := range r.setups {
			setups[i] = d.Seconds()
		}
		add("setup_s", summarize(setups).Median)
		add("bench.latency_p99_us", us(nearestRank(lat, 0.99)))
		add("bench.latency_p999_us", us(nearestRank(lat, 0.999)))
		add("bench.generator_late_p99_us", us(nearestRank(b.sorted(func(w *worker) []int64 { return w.late }), 0.99)))
		add("wfqueue.alloc_bytes_per_op", ratio(float64(r.alloc), float64(r.delivered)))
		return
	}
	add(tracedThroughput, mops)
	ev := map[string]float64{}
	r.stats.EachCount(func(e string, n uint64) { ev[e] = float64(n) })
	mops2 := 2 * float64(r.delivered) / 1e6 // an enqueue and a dequeue per value
	ktransfers := float64(r.delivered) / 1e3
	call := func(k spanKind, q float64) float64 { return float64(nearestRank(b.durations(k), q)) }

	add("wcq.enqueue_call_p50_ns", call(spanWCQEnqueue, 0.5))
	add("wcq.enqueue_call_p99_ns", call(spanWCQEnqueue, 0.99))
	add("wcq.dequeue_call_p50_ns", call(spanWCQDequeue, 0.5))
	add("wcq.dequeue_call_p99_ns", call(spanWCQDequeue, 0.99))
	var empty, deqCalls float64
	if run.w.deq == spanWCQDequeue {
		for i := range b.workers {
			empty += float64(b.workers[i].empty)
			deqCalls += float64(b.workers[i].deqCalls)
		}
	}
	add("wcq.dequeue_empty_ratio", ratio(empty, deqCalls))
	add("wcq.slow_path_per_mop", ratio(ev["enq_slow"]+ev["deq_slow"], mops2))
	add("wcq.threshold_resets_per_mop", ratio(ev["threshold_reset"], mops2))

	add("unbounded.enqueue_call_p99_ns", call(spanUnboundedEnqueue, 0.99))
	add("unbounded.ring_allocs_per_cycle", ratio(ev["ring_alloc"], float64(r.cycles)))
	add("unbounded.pool_hit_ratio", ratio(ev["ring_pool_hit"], ev["ring_pool_hit"]+ev["ring_alloc"]))
	add("unbounded.rings_peak", float64(r.ringsPeak))

	add("park.parks_per_ktransfer", ratio(ev["park"], ktransfers))
	add("park.wakes_per_ktransfer", ratio(ev["wake"], ktransfers))
	add("park.spurious_wake_ratio", ratio(ev["spurious_wake"], ev["wake"]))
	add("park.spin_hit_ratio", ratio(ev["spin_hit"], ev["spin_hit"]+ev["spin_miss"]))
	add("park.parked_p50_us", float64(r.stats.Parked.Quantile(0.5))/1e3)
	add("park.parked_p99_us", float64(r.stats.Parked.Quantile(0.99))/1e3)

	add("chan.send_call_p50_ns", call(spanChanSend, 0.5))
	add("chan.send_call_p99_ns", call(spanChanSend, 0.99))
	add("chan.sendmany_call_p50_ns", call(spanChanSendMany, 0.5))
	add("chan.sendmany_call_p99_ns", call(spanChanSendMany, 0.99))
	add("chan.recv_call_p50_ns", call(spanChanRecv, 0.5))
	add("chan.recv_call_p99_ns", call(spanChanRecv, 0.99))
	var wait []int64
	if run.w.deq == spanChanRecv {
		wait = b.queueWait(run.w)
	}
	add("chan.queue_wait_p50_us", us(nearestRank(wait, 0.5)))
	add("chan.handoff_rate", r.stats.HandoffRate())
}

// finish summarizes the series and derives the metrics that compare
// series: the tracing overhead (untraced and traced reps alternate, so
// rep i of each is a pair), the metrics sink's cost (ladder chunks
// alternate likewise) and the spread of the untraced throughput.
func (run *workloadRun) finish(ladder map[string][]float64) {
	s := run.series
	for name, v := range ladder {
		s[name] = v
	}
	for i, t := range s[tracedThroughput] {
		s["metrics.trace_overhead_pct"] = append(s["metrics.trace_overhead_pct"], (1-t/s["throughput_mops"][i])*100)
	}
	for i, v := range s["chan.nowait_metrics_ns"] {
		s["metrics.sink_ns"] = append(s["metrics.sink_ns"], v-s["chan.nowait_ns"][i])
	}
	run.sum = map[string]summary{}
	for name, v := range s {
		run.sum[name] = summarize(v)
	}
	tp := run.sum["throughput_mops"]
	run.sum["bench.rep_iqr_pct"] = summary{Median: tp.iqrPct(), Q1: tp.iqrPct(), Q3: tp.iqrPct(), N: tp.N}
}
