// Quickstart: a minimal multi-producer multi-consumer run over the
// wait-free queue — the 60-second tour of the public API.
package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	wfqueue "repro"
)

func main() {
	const (
		producers = 3
		consumers = 2
		perProd   = 10_000
	)
	// Capacity 1024, with room for every goroutine to register a
	// handle. The queue allocates everything up front but its
	// free-index ring, which the first recycled slot builds, once.
	q, err := wfqueue.New[int](1024, producers+consumers)
	if err != nil {
		panic(err)
	}
	fmt.Printf("queue capacity %d, footprint %d KiB\n", q.Cap(), q.Footprint()/1024)

	var wg sync.WaitGroup
	var sum atomic.Int64
	var received atomic.Int64

	for p := 0; p < producers; p++ {
		h, err := q.Handle() // one handle per goroutine
		if err != nil {
			panic(err)
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				for !h.Enqueue(p*perProd + i) {
					runtime.Gosched() // full: wait for consumers
				}
			}
		}(p)
	}

	total := int64(producers * perProd)
	for c := 0; c < consumers; c++ {
		h, err := q.Handle()
		if err != nil {
			panic(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for received.Load() < total {
				v, ok := h.Dequeue()
				if !ok {
					runtime.Gosched()
					continue
				}
				sum.Add(int64(v))
				received.Add(1)
			}
		}()
	}

	wg.Wait()
	want := total * (total - 1) / 2
	fmt.Printf("moved %d values, checksum %d (want %d) — %v\n",
		received.Load(), sum.Load(), want, sum.Load() == want)
	fmt.Printf("footprint %d KiB, its bound: the free-index ring built once\n", q.Footprint()/1024)
}
