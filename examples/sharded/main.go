// Sharded: a fan-in/fan-out event bus on the sharded wCQ composition.
//
// Several producer goroutines each publish a stream of events through
// their own handle; the handle's home-shard affinity means any one
// producer's events travel a single wait-free FIFO (so per-producer
// order survives), while different producers land on different shards
// and never contend on the same head/tail word. Consumers drain with
// work stealing — home shard first, then round-robin — using the
// batch API to move events in chunks of 64.
package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	wfqueue "repro"
)

const (
	producers   = 4
	consumers   = 2
	perProducer = 100_000
	batchSize   = 64
)

type event struct {
	producer int
	seq      int
}

func main() {
	bus, err := wfqueue.NewSharded[event](1<<12, producers+consumers)
	if err != nil {
		panic(err)
	}
	fmt.Printf("sharded bus: %d shards, capacity %d, footprint %d KiB\n",
		bus.Shards(), bus.Cap(), bus.Footprint()>>10)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		h, err := bus.Handle()
		if err != nil {
			panic(err)
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			batch := make([]event, 0, batchSize)
			for seq := 0; seq < perProducer; {
				batch = batch[:0]
				for len(batch) < batchSize && seq+len(batch) < perProducer {
					batch = append(batch, event{producer: p, seq: seq + len(batch)})
				}
				sent := 0
				for sent < len(batch) {
					n := h.EnqueueBatch(batch[sent:])
					sent += n
					if n == 0 {
						runtime.Gosched() // home shard full: wait for consumers
					}
				}
				seq += len(batch)
			}
		}(p)
	}

	var consumed atomic.Int64
	var reordered atomic.Int64
	total := int64(producers * perProducer)
	for c := 0; c < consumers; c++ {
		h, err := bus.Handle()
		if err != nil {
			panic(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastSeq := make([]int, producers)
			for i := range lastSeq {
				lastSeq[i] = -1
			}
			out := make([]event, batchSize)
			for consumed.Load() < total {
				n := h.DequeueBatch(out)
				if n == 0 {
					runtime.Gosched()
					continue
				}
				for _, ev := range out[:n] {
					// Per-producer order must hold at every consumer.
					if ev.seq <= lastSeq[ev.producer] {
						reordered.Add(1)
					}
					lastSeq[ev.producer] = ev.seq
				}
				consumed.Add(int64(n))
			}
		}()
	}

	wg.Wait()
	fmt.Printf("moved %d events from %d producers to %d consumers, %d order violations\n",
		consumed.Load(), producers, consumers, reordered.Load())
	if reordered.Load() != 0 {
		panic("per-producer FIFO violated")
	}
}
