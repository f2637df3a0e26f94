// Pipeline: a three-stage processing pipeline (parse → transform →
// aggregate) connected by bounded wait-free queues.
//
// This is the "user-space message passing and scheduling" scenario
// from the paper's introduction: stages exchange work items through
// queues whose operations are bounded in time (no stage can starve
// another by stalling mid-operation) and bounded in memory (natural
// backpressure instead of unbounded buffering).
package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	wfqueue "repro"
)

type item struct {
	id    int
	value uint64
}

const (
	items     = 40_000
	stageCap  = 512
	stage1Par = 2 // parallel workers in the middle stage
)

func main() {
	// Stage boundaries: bounded queues give backpressure for free.
	q1, err := wfqueue.New[item](stageCap, 1+stage1Par)
	if err != nil {
		panic(err)
	}
	q2, err := wfqueue.New[item](stageCap, stage1Par+1)
	if err != nil {
		panic(err)
	}

	var wg sync.WaitGroup
	var processed atomic.Int64

	// Stage 1: source/parser.
	src, err := q1.Handle()
	if err != nil {
		panic(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < items; i++ {
			it := item{id: i, value: uint64(i)}
			for !src.Enqueue(it) {
				runtime.Gosched() // backpressure: stage 2 is busy
			}
		}
	}()

	// Stage 2: parallel transform workers.
	for w := 0; w < stage1Par; w++ {
		in, err1 := q1.Handle()
		out, err2 := q2.Handle()
		if err1 != nil || err2 != nil {
			panic("handle registration failed")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for processed.Load() < items {
				it, ok := in.Dequeue()
				if !ok {
					runtime.Gosched()
					continue
				}
				it.value = it.value*2654435761 + 1 // the "transform"
				for !out.Enqueue(it) {
					runtime.Gosched()
				}
				processed.Add(1)
			}
		}()
	}

	// Stage 3: aggregator.
	sink, err := q2.Handle()
	if err != nil {
		panic(err)
	}
	var sum uint64
	var count int
	seen := make([]bool, items)
	for count < items {
		it, ok := sink.Dequeue()
		if !ok {
			runtime.Gosched()
			continue
		}
		if seen[it.id] {
			panic(fmt.Sprintf("item %d delivered twice", it.id))
		}
		seen[it.id] = true
		sum += it.value
		count++
	}
	wg.Wait()

	fmt.Printf("pipeline processed %d items across %d stages (digest %x)\n",
		count, 3, sum)
	fmt.Printf("stage queues: cap %d each, bounded footprint %d KiB total\n",
		stageCap, (q1.Footprint()+q2.Footprint())/1024)
}
