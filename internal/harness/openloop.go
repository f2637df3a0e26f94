// Open-loop workload engine (figure l1).
//
// The closed-loop figures measure capacity: every thread issues its
// next operation the instant the previous one returns, so a slow queue
// simply slows the load down with it and latency degenerates to
// 1/throughput. The open-loop engine measures what a deployed queue's
// clients actually see: arrivals follow their own Poisson schedule,
// whether or not the queue keeps up, and each transfer's
// latency is charged from the moment the schedule INTENDED it to
// start — not from the moment a backlogged producer finally got to
// issue it. That intended-time rule is the coordinated-omission guard:
// a queue that stalls for 10ms under load accumulates a 10ms-deep tail
// in the histogram instead of silently thinning the sample stream.
package harness

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/queueapi"
	"repro/internal/queues"
)

// schedule generates one producer's intended arrival offsets: a
// Poisson process, whose exponential inter-arrival times are the
// memoryless arrival stream of an M/x/x system — bursty arrivals are
// what expose queueing delay. The sequence depends only on (rate,
// seed) — never on the wall clock — which is the whole
// coordinated-omission discipline in one place: falling behind cannot
// re-anchor the schedule, so the delay a backlogged producer
// accumulates is charged to every subsequent operation until it
// genuinely catches up.
type schedule struct {
	mean float64 // mean inter-arrival in nanoseconds
	next time.Duration
	rng  uint64
}

func newSchedule(rate float64, seed uint64) *schedule {
	return &schedule{mean: 1e9 / rate, rng: seed*2654435761 + 1}
}

// advance steps the schedule and returns the next intended arrival
// offset (relative to the run's start instant).
func (s *schedule) advance() time.Duration {
	// Inverse-CDF exponential draw: -ln(1-U) * mean, with U uniform in
	// [0,1) from the top 53 bits of the xorshift state.
	s.rng = xorshift(s.rng)
	u := float64(s.rng>>11) / (1 << 53)
	s.next += time.Duration(-math.Log(1-u) * s.mean)
	return s.next
}

// waitUntil pauses until the wall clock reaches start+intended: coarse
// sleeps while far ahead of schedule, yields inside the final
// millisecond so the wake lands close to the intended instant without
// monopolizing a CPU the consumers need. When the caller is already
// past the intended time it returns immediately — it never re-anchors.
func waitUntil(start time.Time, intended time.Duration) {
	for {
		ahead := intended - time.Since(start)
		if ahead <= 0 {
			return
		}
		if ahead > time.Millisecond {
			time.Sleep(ahead - 500*time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}

// The idle-wait escalation of the nonblocking engine path: idleSpins
// free re-checks, then idleYields Gosched re-checks, then full-jitter
// sleeps within [idleSleepBase, idleSleepCap].
const (
	idleSpins     = 64
	idleYields    = 16
	idleSleepBase = time.Microsecond
	idleSleepCap  = 128 * time.Microsecond
)

// idleBackoff is an escalating idle wait for the open loop's
// nonblocking producers and consumers: a briefly-blocked loop stays
// hot, while a persistent idler stops burning the core the other side
// needs. Call reset after every success.
type idleBackoff struct {
	rng uint64 // xorshift state for the sleep jitter
	n   int    // waits since the last reset
}

func newIdleBackoff(seed uint64) idleBackoff {
	return idleBackoff{rng: seed*2654435761 + 1}
}

// wait blocks (or not) according to the current escalation level,
// then advances it.
func (b *idleBackoff) wait() {
	switch {
	case b.n < idleSpins:
		// Spin level: the caller's re-check is the work.
	case b.n < idleSpins+idleYields:
		runtime.Gosched()
	default:
		b.rng = xorshift(b.rng)
		time.Sleep(fullJitter(b.rng, b.n-idleSpins-idleYields))
	}
	b.n++
}

// reset drops the escalation back to the spin level.
func (b *idleBackoff) reset() { b.n = 0 }

// fullJitter is the "full jitter" sleep for the attempt-th sleeping
// wait, drawn from the random word r: uniform in [idleSleepBase,
// min(idleSleepCap, idleSleepBase<<attempt)], so attempt 0 yields the
// base exactly.
func fullJitter(r uint64, attempt int) time.Duration {
	ceil := idleSleepCap
	if attempt < 32 && idleSleepBase<<attempt < ceil {
		ceil = idleSleepBase << attempt
	}
	return idleSleepBase + time.Duration(r%uint64(ceil-idleSleepBase+1))
}

// OpenLoopOpts sizes one open-loop measurement.
type OpenLoopOpts struct {
	// Producers and Consumers set the goroutine split (each must be at
	// least 1; EvenSplit derives them from a thread count).
	Producers int
	Consumers int
	// Ops is the total number of transfers across all producers.
	Ops int
	// Rate is the offered load in transfers per second across all
	// producers; each producer runs an independent Poisson schedule
	// at Rate/Producers.
	Rate float64
}

// OpenLoopResult is one open-loop measurement: the offered and
// achieved rates plus the end-to-end latency distribution.
type OpenLoopResult struct {
	// OfferedMops is the scheduled arrival rate in millions of
	// transfers per second.
	OfferedMops float64
	// AchievedMops is the completed rate in millions of transfers per
	// second, measured from the start instant to the last dequeue.
	// Below saturation it tracks OfferedMops; past the knee it pins at
	// the queue's capacity while latency grows without bound.
	AchievedMops float64
	// Latency is the merged per-consumer latency histogram in
	// nanoseconds, recorded under the intended-time rule.
	Latency metrics.HistogramSnapshot
	// FootprintMB is the queue's Footprint() after the run.
	FootprintMB float64
}

// RunOpenLoop builds a fresh queue and drives one open-loop run.
// Producers march their intended-time schedules, stamping each payload
// with its intended offset; consumers charge every transfer
// now-minus-intended into a per-consumer histogram. Queues whose
// handles implement queueapi.Waitable run through the parking
// Send/Recv surface (closed to end the drain); the rest run the
// nonblocking Enqueue/Dequeue with a yield loop.
func RunOpenLoop(name string, cfg queues.Config, opts OpenLoopOpts) (OpenLoopResult, error) {
	var zero OpenLoopResult
	if opts.Producers < 1 || opts.Consumers < 1 {
		return zero, fmt.Errorf("harness: open loop needs at least one producer and one consumer (got %d/%d)",
			opts.Producers, opts.Consumers)
	}
	if !(opts.Rate > 0) || math.IsInf(opts.Rate, 1) {
		return zero, fmt.Errorf("harness: open loop needs a positive finite offered rate (got %f)", opts.Rate)
	}
	if cfg.MaxThreads < opts.Producers+opts.Consumers+2 {
		cfg.MaxThreads = opts.Producers + opts.Consumers + 2
	}
	q, err := queues.New(name, cfg)
	if err != nil {
		return zero, err
	}
	probe, err := q.Handle()
	if err != nil {
		return zero, err
	}
	_, blocking := probe.(queueapi.Waitable)

	perProducer := opts.Ops / opts.Producers
	if perProducer == 0 {
		perProducer = 1
	}
	total := perProducer * opts.Producers
	perRate := opts.Rate / float64(opts.Producers)

	var prod, cons sync.WaitGroup
	var barrier sync.WaitGroup
	barrier.Add(1)
	errs := make(chan error, opts.Producers+opts.Consumers)
	var consumed atomic.Uint64
	var prodDone atomic.Bool
	hists := make([]*metrics.Histogram, opts.Consumers)
	var start time.Time // written before the barrier drops, read after

	for p := 0; p < opts.Producers; p++ {
		h, herr := q.Handle()
		if herr != nil {
			return zero, herr
		}
		sc := newSchedule(perRate, uint64(p)+1)
		prod.Add(1)
		go func(h queueapi.Handle, sc *schedule, seed uint64) {
			defer prod.Done()
			barrier.Wait()
			w, _ := h.(queueapi.Waitable)
			// Full-queue retries escalate (spin, then yields, then
			// jittered sleeps) instead of a raw Gosched spin, so a
			// saturated run does not have every backlogged producer
			// hammering the scheduler in lockstep.
			bo := newIdleBackoff(seed)
			for i := 0; i < perProducer; i++ {
				intended := sc.advance()
				waitUntil(start, intended)
				if blocking {
					if serr := w.Send(uint64(intended)); serr != nil {
						errs <- serr
						return
					}
					continue
				}
				for !h.Enqueue(uint64(intended)) {
					bo.wait()
				}
				bo.reset()
			}
		}(h, sc, uint64(p)+1)
	}
	for c := 0; c < opts.Consumers; c++ {
		h, herr := q.Handle()
		if herr != nil {
			return zero, herr
		}
		hist := metrics.NewHistogram()
		hists[c] = hist
		cons.Add(1)
		go func(h queueapi.Handle, hist *metrics.Histogram, seed uint64) {
			defer cons.Done()
			barrier.Wait()
			if blocking {
				w := h.(queueapi.Waitable)
				for {
					v, rerr := w.Recv()
					if rerr != nil {
						if !errors.Is(rerr, queueapi.ErrClosed) {
							errs <- rerr
						}
						return
					}
					hist.RecordElapsed(time.Since(start) - time.Duration(v))
				}
			}
			// Idle waits escalate rather than spin on Gosched: an
			// empty-queue consumer yields a few times, then sleeps with
			// jitter, so idle consumers do not synchronize into a
			// polling herd.
			bo := newIdleBackoff(seed)
			for {
				if v, ok := h.Dequeue(); ok {
					hist.RecordElapsed(time.Since(start) - time.Duration(v))
					consumed.Add(1)
					bo.reset()
					continue
				}
				if prodDone.Load() && consumed.Load() >= uint64(total) {
					return
				}
				bo.wait()
			}
		}(h, hist, uint64(c)+101)
	}

	start = time.Now()
	barrier.Done()
	prod.Wait()
	prodDone.Store(true)
	if blocking {
		if cerr := q.(queueapi.Closer).Close(); cerr != nil {
			return zero, cerr
		}
	}
	cons.Wait()
	elapsed := time.Since(start).Seconds()
	select {
	case werr := <-errs:
		return zero, werr
	default:
	}

	var merged metrics.HistogramSnapshot
	for _, h := range hists {
		merged.Merge(h.Snapshot())
	}
	return OpenLoopResult{
		OfferedMops:  opts.Rate / 1e6,
		AchievedMops: float64(total) / elapsed / 1e6,
		Latency:      merged,
		FootprintMB:  footprintMB(q),
	}, nil
}

// CalibrateCapacity measures a queue's closed-loop pairwise transfer
// capacity (transfers per second) at the given thread count — the
// denominator the l1 load fractions are expressed against, so the same
// fractions land on comparable points of every queue's latency curve
// regardless of host speed. Queues with a blocking surface calibrate
// through it (the same path the open-loop run uses); both conventions
// count a transfer as two Mops, hence the /2.
func CalibrateCapacity(name string, cfg queues.Config, threads, ops int, blocking bool) (float64, error) {
	pt := RunPoint(name, cfg, Pairwise, PointOpts{
		Threads: threads, Ops: ops, Reps: 1, Blocking: blocking,
	})
	if pt.Err != nil {
		return 0, pt.Err
	}
	capacity := pt.Mops.Mean * 1e6 / 2
	if capacity <= 0 {
		return 0, fmt.Errorf("harness: %s calibrated to zero capacity", name)
	}
	return capacity, nil
}

// queueIsBlocking reports whether name's handles expose the parking
// Send/Recv surface, deciding which engine path an open-loop point
// takes. It probes a throwaway two-slot instance so the real run's
// thread budget is untouched.
func queueIsBlocking(name string, cfg queues.Config) bool {
	cfg.MaxThreads = 2
	q, err := queues.New(name, cfg)
	if err != nil {
		return false
	}
	h, err := q.Handle()
	if err != nil {
		return false
	}
	_, ok := h.(queueapi.Waitable)
	return ok
}
