package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
)

// spanKind names the layer boundary a span times. Spans are recorded
// from the benchmark's side of each public call, so a span's self time
// is its duration until the library records spans of its own.
type spanKind uint8

const (
	spanIntended spanKind = iota
	spanWCQEnqueue
	spanWCQDequeue
	spanChanSend
	spanChanSendMany
	spanChanRecv
	spanUnboundedEnqueue
	spanUnboundedDequeue
)

var spanNames = [...]string{
	spanIntended:         "bench.intended",
	spanWCQEnqueue:       "wcq.enqueue",
	spanWCQDequeue:       "wcq.dequeue",
	spanChanSend:         "chan.send",
	spanChanSendMany:     "chan.sendmany",
	spanChanRecv:         "chan.recv",
	spanUnboundedEnqueue: "unbounded.enqueue",
	spanUnboundedDequeue: "unbounded.dequeue",
}

// span is one timed call. All spans of a transfer share its id,
// 2*seq + producer.
type span struct {
	id    uint64
	kind  spanKind
	start int64 // ns on the benchmark clock
	end   int64
}

// maxTraceTransfers caps how many transfers per workload go into the
// spans file; the per-layer metrics use every recorded span.
const maxTraceTransfers = 1024

// transfer gathers the spans of one sampled transfer.
type transfer struct {
	intended, enq, deq *span
}

// writeSpans writes the retained spans of each workload's last traced
// rep as JSONL: per transfer a root bench.intended span (from the
// intended send time, or the enqueue-side call's start in a closed
// loop, to the dequeue-side call's return), then the enqueue-side call
// as its child, then the dequeue-side call as the enqueue-side call's
// child.
func writeSpans(path string, runs []*workloadRun) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create spans file: %w", err)
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	for _, run := range runs {
		byID := map[uint64]*transfer{}
		for i := range run.spans {
			s := &run.spans[i]
			t := byID[s.id]
			if t == nil {
				t = &transfer{}
				byID[s.id] = t
			}
			switch s.kind {
			case spanIntended:
				t.intended = s
			case run.w.enq:
				t.enq = s
			case run.w.deq:
				t.deq = s
			}
		}
		var ids []uint64
		for id, t := range byID {
			if t.enq != nil {
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
		for _, id := range ids[:min(len(ids), maxTraceTransfers)] {
			t := byID[id]
			root := span{id: id, kind: spanIntended, start: t.enq.start, end: t.enq.end}
			if t.intended != nil {
				root.start = t.intended.start
			}
			deq := span{start: t.enq.end, end: t.enq.end}
			if t.deq != nil {
				deq = *t.deq
				root.end = max(root.end, deq.end)
			}
			writeSpan(bw, run.w.name, root, "", root.end-root.start-covered(root, *t.enq, deq))
			writeSpan(bw, run.w.name, *t.enq, spanNames[spanIntended], t.enq.end-t.enq.start)
			if t.deq != nil {
				writeSpan(bw, run.w.name, *t.deq, spanNames[run.w.enq], t.deq.end-t.deq.start)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// covered returns how much of root's interval a and b cover together.
// A receive may start before its send and return before the send does,
// so the two can overlap.
func covered(root, a, b span) int64 {
	as, ae := max(a.start, root.start), min(a.end, root.end)
	bs, be := max(b.start, root.start), min(b.end, root.end)
	return max(0, ae-as) + max(0, be-bs) - max(0, min(ae, be)-max(as, bs))
}

func writeSpan(bw *bufio.Writer, workload string, s span, parent string, self int64) {
	fmt.Fprintf(bw, `{"workload":%q,"id":%d,"name":%q,"parent":%q,"start_ns":%d,"end_ns":%d,"self_ns":%d}`+"\n",
		workload, s.id, spanNames[s.kind], parent, s.start, s.end, self)
}
