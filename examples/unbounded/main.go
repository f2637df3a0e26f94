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
//
// Next to Footprint, each phase prints the live heap after a garbage
// collection, so the queue's own accounting can be checked against
// what the runtime holds. After a drain the heap may exceed its
// at-rest size only by the rings the two handles last used (two per
// handle); anything more is a drained ring kept alive, and the example
// panics.
package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"

	wfqueue "repro"
)

const (
	ringCap   = 1 << 10 // growth granularity: 1024 values per ring
	burstSize = 200_000
	bursts    = 3
	handles   = 2
)

// liveHeap collects garbage and returns the bytes of live heap objects
// the collection marked.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func main() {
	q, err := wfqueue.NewUnbounded[uint64](handles, wfqueue.WithRingCapacity(ringCap))
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

	ringBytes := q.Footprint() // at rest the queue holds one ring
	rest := liveHeap()
	fmt.Printf("at rest:    %8d B in %d ring(s), live heap %8d B\n", q.Footprint(), q.Rings(), rest)
	for b := 0; b < bursts; b++ {
		// The burst: 200k values land without a single "full" and
		// without blocking the producer.
		for i := uint64(0); i < burstSize; i++ {
			producer.Enqueue(uint64(b)<<32 | i)
		}
		peak := q.Footprint()
		fmt.Printf("burst %d:   %8d B in %d rings (%.1f MB peak), live heap %8d B\n",
			b, peak, q.Rings(), float64(peak)/(1<<20), liveHeap())

		// The slow consumer catches up; each drained ring is left to
		// the garbage collector, so the footprint falls back to one
		// ring.
		for i := uint64(0); i < burstSize; i++ {
			v, ok := consumer.Dequeue()
			if !ok || v != uint64(b)<<32|i {
				panic(fmt.Sprintf("burst %d: lost or reordered value at %d", b, i))
			}
		}
		heap := liveHeap()
		fmt.Printf("drained %d: %8d B in %d ring(s), live heap %8d B\n", b, q.Footprint(), q.Rings(), heap)
		if limit := rest + 2*handles*ringBytes; heap > limit {
			panic(fmt.Sprintf("drained %d: live heap %d B exceeds %d B at rest plus two rings per handle: drained rings kept alive",
				b, heap, rest))
		}
	}
	runtime.KeepAlive(producer)
	runtime.KeepAlive(consumer)
	fmt.Println("all bursts absorbed and drained, FIFO intact")
}
