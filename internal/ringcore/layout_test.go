package ringcore

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/ring"
)

// BenchmarkRingLayout times two goroutines moving values through a wCQ
// Queue of capacity 2^8..2^16, whose index rings hold twice as many
// entries: ring.Slot places them with Remap below ring.SpreadOrder and
// with spread from it up. Run it with -cpu 2, so the two goroutines
// contend from two cores:
//
//	go test -run '^$' -bench '^BenchmarkRingLayout' -cpu 2 ./internal/ringcore
//
// Each pattern stands for one benchmark workload:
//
//   - pairwise: each goroutine enqueues a value and then dequeues one,
//     so the queue stays near empty and the two alternate on the same
//     Head and Tail tickets (the pairwise workload, paper Fig. 11b).
//   - batch16: one goroutine enqueues batches of 16 into a queue it
//     keeps full, the other dequeues one value at a time (the
//     chan_backpressure workload, without its parking).
//
// The metric is ns/value. Setting ring.SpreadOrder to 4 (spread on
// every ring) or 64 (Remap on every ring) in a copy of the tree gives
// the two layouts' columns; ARCHITECTURE, "ring entry layout", keeps
// the table that placed the constant.
func BenchmarkRingLayout(b *testing.B) {
	patterns := []struct {
		name string
		run  func(b *testing.B, hs [2]*QueueHandle[uint64])
	}{{"pairwise", layoutPairwise}, {"batch16", layoutBatch16}}
	for _, p := range patterns {
		for order := 8; order <= 16; order++ {
			c := uint64(1) << order
			b.Run(fmt.Sprintf("%s/cap=%d/ring=%s", p.name, c, layoutName(ring.Order(2*c))), func(b *testing.B) {
				q, err := New[uint64](KindWCQ, c, 2, nil)
				if err != nil {
					b.Fatal(err)
				}
				var hs [2]*QueueHandle[uint64]
				for i := range hs {
					if hs[i], err = q.Register(); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				p.run(b, hs)
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/value")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}

// layoutName names the layout ring.Slot gives a ring of 1<<order
// entries.
func layoutName(order uint) string {
	if order < ring.SpreadOrder {
		return "remap"
	}
	return "spread"
}

// layoutPairwise splits b.N enqueues between the two goroutines, each
// following its enqueue with a dequeue.
func layoutPairwise(b *testing.B, hs [2]*QueueHandle[uint64]) {
	var wg sync.WaitGroup
	for p, h := range hs {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := range n {
				if !h.Enqueue(uint64(i)) {
					panic("pairwise: queue full")
				}
				h.Dequeue()
			}
		}(b.N/2 + p*(b.N%2))
	}
	wg.Wait()
}

// layoutBatch16 moves b.N values from a batch-16 producer to a scalar
// consumer; each retries until the other makes room or a value.
func layoutBatch16(b *testing.B, hs [2]*QueueHandle[uint64]) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		var batch [16]uint64
		for sent := 0; sent < b.N; {
			n := hs[0].EnqueueBatch(batch[:min(len(batch), b.N-sent)])
			if n == 0 {
				runtime.Gosched()
			}
			sent += n
		}
	}()
	go func() {
		defer wg.Done()
		for got := 0; got < b.N; {
			if _, ok := hs[1].Dequeue(); ok {
				got++
			} else {
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
}
