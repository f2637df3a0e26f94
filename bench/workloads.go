package main

import (
	"errors"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	wfqueue "repro"
)

const (
	// sampleMask picks the values whose latency is timed, and in a
	// traced rep the calls whose span is recorded: 1 in 64.
	sampleMask = 63
	// stampSlots is how many sampled enqueue times a producer keeps;
	// it must exceed the sampled values in flight at once (burst_drain
	// holds at most burst/64 = 512 per producer).
	stampSlots = 4096
	// startDelay lets both workers reach their loop before the timed
	// phase starts.
	startDelay = time.Millisecond

	openLoopRate  = 100_000 // transfers/s offered by chan_openloop
	sendManyBatch = 16      // values per SendMany in chan_backpressure
	burst         = 32_768  // values each goroutine enqueues per burst_drain cycle

	// backpressureCap is chan_backpressure's buffer. A parked sender
	// takes tens of microseconds to wake; at 64 or 128 slots the
	// receiver drains the buffer in that time, so each rep mixes full
	// and drained phases and the median latency jumps between them
	// (5 and 28 us at 64) from rep to rep and run to run. At 256 the
	// buffer stays full, and the sender still parks about twice per
	// 1000 transfers.
	backpressureCap = 256

	// setupRounds is how many times each rep builds its queue; setup_s
	// is the median construction time, and the rep runs on the last.
	setupRounds = 5
)

// epoch anchors the benchmark clock; now reads the monotonic clock
// only, which is cheaper than time.Now.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// workload is one load shape, driven by exactly two goroutines. Why
// each exists is in BENCHMARK.json and README.md.
type workload struct {
	name     string
	enq, deq spanKind // the spans of its enqueue-side and dequeue-side calls
	run      func(b *bench, r *rep) error
}

var workloads = []*workload{
	{"pairwise", spanWCQEnqueue, spanWCQDequeue, runPairwise},
	{"chan_openloop", spanChanSend, spanChanRecv, runOpenLoop},
	{"chan_backpressure", spanChanSendMany, spanChanRecv, runBackpressure},
	{"burst_drain", spanUnboundedEnqueue, spanUnboundedDequeue, runBurstDrain},
}

// worker is one goroutine's state, preallocated once so the timed
// loops only append within capacity and never allocate. The padding
// keeps the two workers' counters, written on every transfer, off each
// other's cache lines (and their adjacent-line prefetch pairs).
type worker struct {
	_      [128]byte
	lat    []int64        // latency samples, ns
	late   []int64        // open-loop generator lateness, ns
	spans  []span         // traced reps only
	stamps []atomic.Int64 // enqueue start of sampled values, by seq/64

	sent, sentSum uint64 // sums wrap; they are compared, not read
	recv, recvSum uint64
	next          [2]uint64 // per producer: lowest sequence number still in order
	violations    uint64    // per-producer FIFO violations seen by this consumer
	apiErrors     uint64
	deqCalls      uint64
	empty         uint64
	end           int64
	_             [128]byte
}

func (w *worker) reset() {
	*w = worker{lat: w.lat[:0], late: w.late[:0], spans: w.spans[:0], stamps: w.stamps}
}

func (w *worker) addLatency(ns int64) {
	if len(w.lat) < cap(w.lat) {
		w.lat = append(w.lat, ns)
	}
}

func (w *worker) addSpan(id uint64, k spanKind, start, end int64) {
	if len(w.spans) < cap(w.spans) {
		w.spans = append(w.spans, span{id: id, kind: k, start: start, end: end})
	}
}

func (w *worker) stamp(seq uint64, t int64) { w.stamps[stampSlot(seq)].Store(t) }

func stampSlot(seq uint64) uint64 { return seq / (sampleMask + 1) % stampSlots }

// bench holds the state shared by every rep of one invocation.
type bench struct {
	cfg     config
	workers [2]worker
	sched   []int64 // chan_openloop: intended send offsets from the rep's start, ns
	key     uint64  // payload mask derived from the seed
}

func newBench(cfg config) *bench {
	secs := cfg.repLen.Seconds()
	b := &bench{cfg: cfg, key: rand.New(rand.NewPCG(cfg.seed, 0x9e3779b97f4a7c15)).Uint64()}
	// Sized for far more than the measured rates: 250k latency samples/s
	// per consumer is 16 M values/s at 1-in-64 sampling, and the open
	// loop records every transfer.
	samples := int(secs*250_000) + 4096
	for i := range b.workers {
		b.workers[i] = worker{
			lat:    make([]int64, 0, samples),
			late:   make([]int64, 0, samples),
			spans:  make([]span, 0, samples/2),
			stamps: make([]atomic.Int64, stampSlots),
		}
	}
	b.sched = make([]int64, 0, int(secs*openLoopRate*1.5)+4096)
	return b
}

// value encodes a producer's seq-th payload; id recovers 2*seq+producer.
func (b *bench) value(p int, seq uint64) uint64 { return b.key ^ (seq<<1 | uint64(p)) }
func (b *bench) id(v uint64) uint64             { return v ^ b.key }

// take checks and counts one received value: it must come after every
// value this consumer already took from the same producer.
func (b *bench) take(w *worker, v uint64) (p int, seq uint64) {
	x := b.id(v)
	p, seq = int(x&1), x>>1
	if seq < w.next[p] {
		w.violations++
	} else {
		w.next[p] = seq + 1
	}
	w.recv++
	w.recvSum += v
	return p, seq
}

// takeSampled takes v and, for a sampled value, records its latency
// from its producer's enqueue stamp to now.
func (b *bench) takeSampled(w *worker, v uint64) {
	if p, seq := b.take(w, v); seq&sampleMask == 0 {
		w.addLatency(now() - b.workers[p].stamps[stampSlot(seq)].Load())
	}
}

// rep is one fresh queue driven for one rep length.
type rep struct {
	traced bool
	rng    *rand.Rand       // the rep's inputs, drawn from the seed
	opts   []wfqueue.Option // WithMetrics in a traced rep

	t0, deadline int64
	setups       [setupRounds]time.Duration
	end          int64
	delivered    uint64 // values received inside the timed phase
	alloc        uint64 // TotalAlloc delta across the timed phase
	peakFP       uint64
	residualFP   float64 // bytes; the mean over burst_drain's cycles
	stats        wfqueue.MetricsSnapshot
	cycles       uint64 // burst_drain cycles
	ringsPeak    int
}

// build runs mk setupRounds times, timing each construction; the
// workload keeps what the last call built. In a traced rep each
// construction gets its own metrics sink.
func (r *rep) build(mk func() error) error {
	for i := range r.setups {
		if r.traced {
			r.opts = []wfqueue.Option{wfqueue.WithMetrics(wfqueue.NewMetricsSink())}
		}
		start := time.Now()
		if err := mk(); err != nil {
			return err
		}
		r.setups[i] = time.Since(start)
	}
	return nil
}

// launch runs body on two goroutines from a common start instant and
// returns once both have finished.
func (b *bench) launch(r *rep, body func(p int, w *worker)) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	r.t0 = now() + int64(startDelay)
	r.deadline = r.t0 + int64(b.cfg.repLen)
	var wg sync.WaitGroup
	for p := range b.workers {
		w := &b.workers[p]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for now() < r.t0 {
			}
			body(p, w)
			w.end = now()
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&ms)
	r.alloc = ms.TotalAlloc - before
	for i := range b.workers {
		r.end = max(r.end, b.workers[i].end)
		r.delivered += b.workers[i].recv
	}
}

// failures counts lost and duplicated values, per-producer FIFO
// violations and API errors over the rep.
func (b *bench) failures() (attempted, failed uint64) {
	var recv, sentSum, recvSum uint64
	for i := range b.workers {
		w := &b.workers[i]
		attempted += w.sent
		recv += w.recv
		sentSum += w.sentSum
		recvSum += w.recvSum
		failed += w.violations + w.apiErrors
	}
	switch {
	case recv != attempted:
		failed += max(recv, attempted) - min(recv, attempted)
	case recvSum != sentSum:
		failed++
	}
	return attempted, failed
}

func runPairwise(b *bench, r *rep) error {
	var q *wfqueue.Queue[uint64]
	var hs [2]*wfqueue.Handle[uint64]
	if err := r.build(func() (err error) {
		if q, err = wfqueue.New[uint64](1<<16, 2, r.opts...); err != nil {
			return err
		}
		for i := range hs {
			if hs[i], err = q.Handle(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	b.launch(r, func(p int, w *worker) {
		h := hs[p]
		for seq := uint64(0); ; seq++ {
			if seq&255 == 0 && now() >= r.deadline {
				return
			}
			v := b.value(p, seq)
			sampled := seq&sampleMask == 0
			var t0 int64
			if sampled {
				t0 = now()
				w.stamp(seq, t0)
			}
			if !h.Enqueue(v) {
				w.apiErrors++
				return
			}
			w.sent++
			w.sentSum += v
			if sampled && r.traced {
				t1 := now()
				w.addSpan(b.id(v), spanWCQEnqueue, t0, t1)
				t0 = t1
			}
			x, ok := h.Dequeue()
			w.deqCalls++
			if !ok {
				w.empty++
				continue
			}
			if sampled && r.traced {
				w.addSpan(b.id(x), spanWCQDequeue, t0, now())
			}
			b.takeSampled(w, x)
		}
	})
	for {
		v, ok := hs[0].Dequeue()
		if !ok {
			break
		}
		b.take(&b.workers[0], v)
	}
	r.peakFP, r.residualFP = q.Footprint(), float64(q.Footprint())
	r.stats = q.Stats()
	return nil
}

// schedule fills b.sched with one rep of Poisson arrivals at
// openLoopRate.
func (b *bench) schedule(rng *rand.Rand) {
	b.sched = b.sched[:0]
	mean := 1e9 / openLoopRate
	for t := 0.0; len(b.sched) < cap(b.sched); {
		t += rng.ExpFloat64() * mean
		if t >= float64(b.cfg.repLen) {
			break
		}
		b.sched = append(b.sched, int64(t))
	}
}

func runOpenLoop(b *bench, r *rep) error {
	b.schedule(r.rng)
	var c *wfqueue.Chan[int64]
	var tx, rx *wfqueue.ChanHandle[int64]
	if err := r.build(func() (err error) {
		if c, err = wfqueue.NewChan[int64](64, 2, r.opts...); err != nil {
			return err
		}
		if tx, err = c.Handle(); err != nil {
			return err
		}
		rx, err = c.Handle()
		return err
	}); err != nil {
		return err
	}
	b.launch(r, func(p int, w *worker) {
		if p == 0 {
			for i, off := range b.sched {
				seq := uint64(i)
				// The generator yields while it waits: a spinning
				// producer would hold its CPU, and a receiver it wakes
				// would wait for the other CPU's scheduler to steal it.
				due := r.t0 + off
				t := now()
				for t < due {
					runtime.Gosched()
					t = now()
				}
				w.late = append(w.late, t-due)
				v := b.value(0, seq)
				err := tx.Send(int64(v))
				if r.traced && seq&sampleMask == 0 {
					w.addSpan(b.id(v), spanIntended, due, t)
					w.addSpan(b.id(v), spanChanSend, t, now())
				}
				if err != nil {
					w.apiErrors++
					break
				}
				w.sent++
				w.sentSum += v
			}
			if err := c.Close(); err != nil {
				w.apiErrors++
			}
			return
		}
		for i := uint64(0); ; i++ {
			var t0 int64
			timed := r.traced && i&sampleMask == 0
			if timed {
				t0 = now()
			}
			v, err := rx.Recv()
			t1 := now()
			if err != nil {
				if !errors.Is(err, wfqueue.ErrClosed) {
					w.apiErrors++
				}
				return
			}
			if timed {
				w.addSpan(b.id(uint64(v)), spanChanRecv, t0, t1)
			}
			if _, seq := b.take(w, uint64(v)); seq < uint64(len(b.sched)) {
				w.addLatency(t1 - (r.t0 + b.sched[seq]))
			}
		}
	})
	r.peakFP, r.residualFP = c.Footprint(), float64(c.Footprint())
	r.stats = c.Stats()
	return nil
}

func runBackpressure(b *bench, r *rep) error {
	var c *wfqueue.Chan[uint64]
	var tx, rx *wfqueue.ChanHandle[uint64]
	if err := r.build(func() (err error) {
		if c, err = wfqueue.NewChan[uint64](backpressureCap, 2, r.opts...); err != nil {
			return err
		}
		if tx, err = c.Handle(); err != nil {
			return err
		}
		rx, err = c.Handle()
		return err
	}); err != nil {
		return err
	}
	var batch [sendManyBatch]uint64
	b.launch(r, func(p int, w *worker) {
		if p == 0 {
			for seq := uint64(0); seq&255 != 0 || now() < r.deadline; seq += sendManyBatch {
				for j := range batch {
					batch[j] = b.value(0, seq+uint64(j))
				}
				sampled := seq&sampleMask == 0
				var t0 int64
				if sampled {
					t0 = now()
					w.stamp(seq, t0)
				}
				n, err := tx.SendMany(batch[:])
				if sampled && r.traced {
					w.addSpan(b.id(batch[0]), spanChanSendMany, t0, now())
				}
				for _, v := range batch[:n] {
					w.sent++
					w.sentSum += v
				}
				if err != nil || n != len(batch) {
					w.apiErrors++
					break
				}
			}
			if err := c.Close(); err != nil {
				w.apiErrors++
			}
			return
		}
		for i := uint64(0); ; i++ {
			var t0 int64
			timed := r.traced && i&sampleMask == 0
			if timed {
				t0 = now()
			}
			v, err := rx.Recv()
			if err != nil {
				if !errors.Is(err, wfqueue.ErrClosed) {
					w.apiErrors++
				}
				return
			}
			if timed {
				w.addSpan(b.id(v), spanChanRecv, t0, now())
			}
			b.takeSampled(w, v)
		}
	})
	r.peakFP, r.residualFP = c.Footprint(), float64(c.Footprint())
	r.stats = c.Stats()
	return nil
}

// barrier is a reusable two-party spin barrier; each party counts its
// own rounds.
type barrier struct{ arrived atomic.Uint64 }

func (b *barrier) wait(round *uint64) {
	*round++
	b.arrived.Add(1)
	for b.arrived.Load() < *round*2 {
		runtime.Gosched()
	}
}

func runBurstDrain(b *bench, r *rep) error {
	var q *wfqueue.UnboundedQueue[uint64]
	var hs [2]*wfqueue.UnboundedHandle[uint64]
	if err := r.build(func() (err error) {
		if q, err = wfqueue.NewUnbounded[uint64](2, append(r.opts, wfqueue.WithRingCapacity(1024))...); err != nil {
			return err
		}
		for i := range hs {
			if hs[i], err = q.Handle(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var bar barrier
	var quit atomic.Bool
	// The residual footprint is read after every drain: which drained
	// rings the pool keeps varies from cycle to cycle, so one reading
	// per rep would be a coin toss.
	var residual uint64
	b.launch(r, func(p int, w *worker) {
		h := hs[p]
		var round, seq, calls uint64
		for {
			for range burst {
				v := b.value(p, seq)
				sampled := seq&sampleMask == 0
				var t0 int64
				if sampled {
					t0 = now()
					w.stamp(seq, t0)
				}
				h.Enqueue(v)
				if sampled && r.traced {
					w.addSpan(b.id(v), spanUnboundedEnqueue, t0, now())
				}
				w.sent++
				w.sentSum += v
				seq++
			}
			bar.wait(&round)
			if p == 0 {
				r.peakFP = max(r.peakFP, q.Footprint())
				r.ringsPeak = max(r.ringsPeak, q.Rings())
			}
			bar.wait(&round)
			for ; ; calls++ {
				var t0 int64
				timed := r.traced && calls&sampleMask == 0
				if timed {
					t0 = now()
				}
				v, ok := h.Dequeue()
				w.deqCalls++
				if !ok {
					w.empty++
					break
				}
				if timed {
					w.addSpan(b.id(v), spanUnboundedDequeue, t0, now())
				}
				b.takeSampled(w, v)
			}
			bar.wait(&round)
			if p == 0 {
				r.cycles++
				residual += q.Footprint()
				quit.Store(now() >= r.deadline)
			}
			bar.wait(&round)
			if quit.Load() {
				return
			}
		}
	})
	for {
		v, ok := hs[0].Dequeue()
		if !ok {
			break
		}
		b.take(&b.workers[0], v)
	}
	r.residualFP = float64(residual) / float64(r.cycles)
	r.stats = q.Stats()
	return nil
}
