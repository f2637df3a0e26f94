// Unbounded: a burst absorber on wfqueue.NewUnbounded and the
// never-blocking send of the unbounded Chan backend.
//
// A front-end goroutine receives traffic that arrives in bursts far
// larger than any sensible fixed buffer. With a bounded queue it must
// choose between shedding load and blocking the producer; the
// unbounded queue absorbs the whole burst instead, growing in
// ring-sized steps, and gives the memory back once the slow consumer
// catches up — the footprint is printed after each phase so the
// grow/shrink cycle is visible: after each drain one ring is left,
// and every burst peaks at the same size. The same shape through the
// blocking facade is NewChan(..., WithBackend(BackendUnbounded)):
// Send never parks, only Recv does.
package main

import (
	"fmt"

	wfqueue "repro"
)

const (
	ringCap   = 1 << 10 // growth granularity: 1024 values per ring
	burstSize = 200_000
	bursts    = 3
)

func main() {
	q, err := wfqueue.NewUnbounded[uint64](2, wfqueue.WithRingCapacity(ringCap))
	if err != nil {
		panic(err)
	}
	producer, err := q.Handle()
	if err != nil {
		panic(err)
	}
	consumer, err := q.Handle()
	if err != nil {
		panic(err)
	}

	fmt.Printf("at rest:    %7d B in %d ring(s)\n", q.Footprint(), q.Rings())
	for b := 0; b < bursts; b++ {
		// The burst: 200k values land without a single "full" and
		// without blocking the producer.
		for i := uint64(0); i < burstSize; i++ {
			producer.Enqueue(uint64(b)<<32 | i)
		}
		peak := q.Footprint()
		fmt.Printf("burst %d:   %8d B in %d rings (%.1f MB peak)\n",
			b, peak, q.Rings(), float64(peak)/(1<<20))

		// The slow consumer catches up; each drained ring is left to
		// the garbage collector, so the footprint falls back to one
		// ring.
		for i := uint64(0); i < burstSize; i++ {
			v, ok := consumer.Dequeue()
			if !ok || v != uint64(b)<<32|i {
				panic(fmt.Sprintf("burst %d: lost or reordered value at %d", b, i))
			}
		}
		fmt.Printf("drained %d: %8d B in %d ring(s)\n", b, q.Footprint(), q.Rings())
	}
	fmt.Println("all bursts absorbed and drained, FIFO intact")
}
