// Chan: a worker pool with graceful shutdown on the blocking
// wfqueue.Chan facade.
//
// A dispatcher Sends jobs into a bounded Chan (parking when the
// workers fall behind — natural backpressure, no spinning), workers
// Recv jobs (parking when idle) and Send results into a second Chan,
// and shutdown is a Close cascade: closing the job channel drains it,
// each worker exits on ErrClosed, and the collector finishes once the
// result channel closes behind the last worker. A straggler using
// RecvCtx shows deadline-bounded waits on the same queue. A last timed
// loop compares the Chan against Go's built-in buffered channel.
package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	wfqueue "repro"
)

type job struct {
	id    int
	input uint64
}

type result struct {
	id     int
	output uint64
}

const (
	workers = 4
	jobs    = 10_000
	buffer  = 256
	pairs   = 50_000 // send+receive pairs per goroutine in the timed comparison
)

func main() {
	jobq, err := wfqueue.NewChan[job](buffer, workers+2)
	if err != nil {
		panic(err)
	}
	resq, err := wfqueue.NewChan[result](buffer, workers+2)
	if err != nil {
		panic(err)
	}

	// Workers: Recv parks while idle, drains after Close, and reports
	// ErrClosed when the job queue is closed and empty.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		jh, err1 := jobq.Handle()
		rh, err2 := resq.Handle()
		if err1 != nil || err2 != nil {
			panic("handle registration failed")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, err := jh.Recv()
				if err != nil { // ErrClosed: shutdown
					return
				}
				if err := rh.Send(result{id: j.id, output: j.input * j.input}); err != nil {
					return
				}
			}
		}()
	}

	// Collector: counts results until the result channel closes.
	collected := make(chan int, 1)
	rh, err := resq.Handle()
	if err != nil {
		panic(err)
	}
	go func() {
		n := 0
		var sum uint64
		for {
			r, err := rh.Recv()
			if err != nil {
				fmt.Printf("collector: %d results (checksum %d)\n", n, sum)
				collected <- n
				return
			}
			n++
			sum += r.output
		}
	}()

	// Dispatch, then shut down gracefully: close jobs, wait for the
	// workers to drain them, close results behind the last worker.
	jh, err := jobq.Handle()
	if err != nil {
		panic(err)
	}
	start := time.Now()
	for i := 0; i < jobs; i++ {
		if err := jh.Send(job{id: i, input: uint64(i)}); err != nil {
			panic(err)
		}
	}
	jobq.Close()
	wg.Wait()
	resq.Close()
	n := <-collected
	fmt.Printf("%d jobs through %d workers in %v (graceful close, nothing lost: %v)\n",
		jobs, workers, time.Since(start).Round(time.Millisecond), n == jobs)

	// Deadline-bounded receive on a drained, closed queue family:
	// RecvCtx returns ErrClosed immediately rather than waiting out
	// the context — closed wins over "still empty".
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := rh.RecvCtx(ctx); errors.Is(err, wfqueue.ErrClosed) {
		fmt.Println("post-shutdown RecvCtx: ErrClosed (no deadline wait)")
	}

	compare()
}

// compare times the same pairwise loop — each goroutine sends a value,
// then receives one — on a wfqueue.Chan and on a built-in buffered
// channel of the same size.
func compare() {
	c, err := wfqueue.NewChan[uint64](buffer, workers)
	if err != nil {
		panic(err)
	}
	handles := make([]*wfqueue.ChanHandle[uint64], workers)
	for i := range handles {
		if handles[i], err = c.Handle(); err != nil {
			panic(err)
		}
	}
	timed("wfqueue.Chan", func(w int) {
		h := handles[w]
		for i := 0; i < pairs; i++ {
			if err := h.Send(uint64(i)); err != nil {
				panic(err)
			}
			if _, err := h.Recv(); err != nil {
				panic(err)
			}
		}
	})
	ch := make(chan uint64, buffer)
	timed("built-in chan", func(int) {
		for i := 0; i < pairs; i++ {
			ch <- uint64(i)
			<-ch
		}
	})
}

// timed runs loop on workers goroutines and prints the transfer rate.
func timed(name string, loop func(worker int)) {
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(w)
		}()
	}
	wg.Wait()
	el := time.Since(start)
	fmt.Printf("%-14s %6.2f Mops/s (pairwise send+recv, %d goroutines)\n",
		name, float64(2*workers*pairs)/el.Seconds()/1e6, workers)
}
