package main

import (
	"fmt"

	wfqueue "repro"
)

// ladderChunks is how many interleaved chunks each rung's time is split
// into; a rung reports the median over its chunks.
const ladderChunks = 10

// rung is one single-goroutine, uncontended measurement: op runs n
// units (an Enqueue+Dequeue or Send+Recv pair, or one empty Dequeue)
// and returns how many gave a wrong result. Each op calls the public
// methods directly, so no rung pays an indirection the others do not.
type rung struct {
	name string
	op   func(n int) (bad uint64)
}

// ladderRungs builds every rung at capacity 1024, so the differences
// between rungs are the layers' path costs, not cache footprints.
func ladderRungs() ([]rung, error) {
	ring, err := wfqueue.NewRing(1024, 1, false)
	if err != nil {
		return nil, err
	}
	rh, err := ring.Handle()
	if err != nil {
		return nil, err
	}
	wq, err := wfqueue.New[uint64](1024, 1)
	if err != nil {
		return nil, err
	}
	wh, err := wq.Handle()
	if err != nil {
		return nil, err
	}
	eq, err := wfqueue.New[uint64](1024, 1)
	if err != nil {
		return nil, err
	}
	eh, err := eq.Handle()
	if err != nil {
		return nil, err
	}
	sq, err := wfqueue.NewLockFree[uint64](1024)
	if err != nil {
		return nil, err
	}
	uq, err := wfqueue.NewUnbounded[uint64](1, wfqueue.WithRingCapacity(1024))
	if err != nil {
		return nil, err
	}
	uh, err := uq.Handle()
	if err != nil {
		return nil, err
	}
	chanPair := func(opts ...wfqueue.Option) (func(int) uint64, error) {
		c, err := wfqueue.NewChan[uint64](1024, 1, opts...)
		if err != nil {
			return nil, err
		}
		h, err := c.Handle()
		if err != nil {
			return nil, err
		}
		return func(n int) (bad uint64) {
			for i := range uint64(n) {
				if h.Send(i) != nil {
					bad++
				}
				if v, err := h.Recv(); err != nil || v != i {
					bad++
				}
			}
			return bad
		}, nil
	}
	plain, err := chanPair()
	if err != nil {
		return nil, err
	}
	sunk, err := chanPair(wfqueue.WithMetrics(wfqueue.NewMetricsSink()))
	if err != nil {
		return nil, err
	}
	return []rung{
		{"wcq.ring_ns", func(n int) (bad uint64) {
			for i := range uint64(n) {
				rh.Enqueue(i % 1024)
				if v, ok := rh.Dequeue(); !ok || v != i%1024 {
					bad++
				}
			}
			return bad
		}},
		{"wcq.queue_ns", func(n int) (bad uint64) {
			for i := range uint64(n) {
				if !wh.Enqueue(i) {
					bad++
				}
				if v, ok := wh.Dequeue(); !ok || v != i {
					bad++
				}
			}
			return bad
		}},
		{"wcq.empty_dequeue_ns", func(n int) (bad uint64) {
			for range n {
				if _, ok := eh.Dequeue(); ok {
					bad++
				}
			}
			return bad
		}},
		{"scq.queue_ns", func(n int) (bad uint64) {
			for i := range uint64(n) {
				if !sq.Enqueue(i) {
					bad++
				}
				if v, ok := sq.Dequeue(); !ok || v != i {
					bad++
				}
			}
			return bad
		}},
		{"unbounded.queue_ns", func(n int) (bad uint64) {
			for i := range uint64(n) {
				uh.Enqueue(i)
				if v, ok := uh.Dequeue(); !ok || v != i {
					bad++
				}
			}
			return bad
		}},
		{"chan.nowait_ns", plain},
		{"chan.nowait_metrics_ns", sunk},
	}, nil
}

// runLadder runs the rungs round-robin in chunks of chunk ns each, so
// host drift affects every rung alike. It returns ns per unit by rung
// and the number of wrong results.
func runLadder(chunk int64) (ns map[string][]float64, bad uint64, err error) {
	rungs, err := ladderRungs()
	if err != nil {
		return nil, 0, fmt.Errorf("build ladder: %w", err)
	}
	ns = map[string][]float64{}
	for range ladderChunks {
		for _, r := range rungs {
			var n int
			start := now()
			for now()-start < chunk {
				bad += r.op(1024)
				n += 1024
			}
			ns[r.name] = append(ns[r.name], float64(now()-start)/float64(n))
		}
	}
	return ns, bad, nil
}
