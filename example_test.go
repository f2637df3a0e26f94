package wfqueue_test

import (
	"fmt"

	wfqueue "repro"
)

// The bounded wait-free queue: fixed capacity, per-goroutine handles,
// no allocation after construction.
func ExampleNew() {
	q, err := wfqueue.New[string](8, 2) // capacity 8, up to 2 goroutines
	if err != nil {
		panic(err)
	}
	h, err := q.Handle() // one handle per goroutine
	if err != nil {
		panic(err)
	}
	h.Enqueue("hello")
	h.Enqueue("world")
	for {
		v, ok := h.Dequeue()
		if !ok {
			break
		}
		fmt.Println(v)
	}
	// Output:
	// hello
	// world
}

// The blocking facade: Send/Recv park instead of spinning, and Close
// drains gracefully — receives after Close keep returning buffered
// values and only then report ErrClosed.
func ExampleNewChan() {
	c, err := wfqueue.NewChan[string](8, 2)
	if err != nil {
		panic(err)
	}
	h, err := c.Handle()
	if err != nil {
		panic(err)
	}
	if err := h.Send("job"); err != nil {
		panic(err)
	}
	c.Close()
	v, err := h.Recv() // drains the buffered value
	fmt.Println(v, err)
	_, err = h.Recv() // now closed and empty
	fmt.Println(err == wfqueue.ErrClosed)
	// Output:
	// job <nil>
	// true
}

// The unbounded queue: Enqueue never reports full — the queue grows
// by linking rings and shrinks back as bursts drain.
func ExampleNewUnbounded() {
	q, err := wfqueue.NewUnbounded[int](2, wfqueue.WithRingCapacity(4))
	if err != nil {
		panic(err)
	}
	h, err := q.Handle()
	if err != nil {
		panic(err)
	}
	for i := 0; i < 10; i++ { // far beyond one ring: no "full", it grows
		h.Enqueue(i)
	}
	fmt.Println("rings:", q.Rings() > 1)
	sum := 0
	for {
		v, ok := h.Dequeue()
		if !ok {
			break
		}
		sum += v
	}
	fmt.Println("sum:", sum)
	// Output:
	// rings: true
	// sum: 45
}
