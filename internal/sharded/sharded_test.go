package sharded_test

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/metrics"
	"repro/internal/queueapi"
	"repro/internal/ringcore"
	"repro/internal/sharded"
)

// apiQueue adapts the generic sharded queue to queueapi for the
// checker; a ringcore.Handle is already a queueapi.Handle and
// queueapi.Batcher.
type apiQueue struct{ q *sharded.Queue[uint64] }

func (a *apiQueue) Handle() (queueapi.Handle, error) { return a.q.Acquire() }
func (a *apiQueue) Cap() uint64                      { return a.q.Cap() }
func (a *apiQueue) Footprint() uint64                { return a.q.Footprint() }
func (a *apiQueue) Name() string                     { return "sharded-test" }

func mustNew(t *testing.T, capacity uint64, threads int, opts *sharded.Options) *sharded.Queue[uint64] {
	t.Helper()
	q, err := sharded.New[uint64](capacity, threads, opts)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestConstructionValidation(t *testing.T) {
	// Bounded shards split the capacity over sharded.Shards (4) rings,
	// each a power of two >= 2.
	for _, c := range []struct {
		name     string
		capacity uint64
	}{
		{"zero capacity", 0},
		{"capacity not divisible", 100},
		{"per-shard capacity below 2", 4},
		{"per-shard capacity not power of two", 24},
	} {
		if _, err := sharded.New[uint64](c.capacity, 4, nil); err == nil {
			t.Errorf("%s: accepted capacity %d", c.name, c.capacity)
		}
	}
}

func TestDefaultsAndAccessors(t *testing.T) {
	q := mustNew(t, 256, 2, nil)
	if q.Cap() != 256 {
		t.Fatalf("Cap() = %d, want 256", q.Cap())
	}
	if q.Footprint() == 0 {
		t.Fatal("zero footprint")
	}
	if q.Rings() != 0 {
		t.Fatalf("Rings() = %d, want 0 with bounded shards", q.Rings())
	}
	// wCQ shards carry a census: with maxThreads 2 a third handle
	// fails, because each shard's census is full.
	for i := 0; i < 2; i++ {
		if _, err := q.Acquire(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Acquire(); err == nil {
		t.Fatal("third Acquire with maxThreads 2 succeeded")
	}
}

func TestPerHandleFIFO(t *testing.T) {
	// A single handle enqueues to one shard, so its values come back
	// in strict order no matter how many shards exist.
	q := mustNew(t, 64, 2, nil)
	h, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		if !h.Enqueue(i) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	for i := uint64(0); i < 8; i++ {
		v, ok := h.Dequeue()
		if !ok || v != i {
			t.Fatalf("got (%d,%v), want %d", v, ok, i)
		}
	}
	if _, ok := h.Dequeue(); ok {
		t.Fatal("empty queue returned a value")
	}
}

func TestWorkStealing(t *testing.T) {
	// Values enqueued via one handle (one home shard) must be visible
	// to a handle whose home is a different shard.
	q := mustNew(t, 64, 4, nil)
	producer, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	thief, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if !producer.Enqueue(42) {
		t.Fatal("enqueue failed")
	}
	v, ok := thief.Dequeue()
	if !ok || v != 42 {
		t.Fatalf("steal got (%d,%v), want 42", v, ok)
	}
}

func TestNoShardStarvation(t *testing.T) {
	// Register one handle per shard, enqueue through each, then drain
	// everything through a single consumer: the rotating cursor must
	// visit every shard.
	const shards = sharded.Shards
	q := mustNew(t, 64, shards+1, nil)
	for i := 0; i < shards; i++ {
		h, err := q.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		if !h.Enqueue(uint64(i)) {
			t.Fatalf("enqueue to shard %d failed", i)
		}
	}
	consumer, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < shards; i++ {
		v, ok := consumer.Dequeue()
		if !ok {
			t.Fatalf("drain stalled after %d values", i)
		}
		seen[v] = true
	}
	if len(seen) != shards {
		t.Fatalf("drained %d distinct values, want %d", len(seen), shards)
	}
}

func TestEnqueueBatchPrefixOnFull(t *testing.T) {
	// A short EnqueueBatch count must be a prefix: the home shard here
	// holds 4, so a batch of 6 enqueues exactly the first 4.
	q := mustNew(t, 16, 2, nil)
	h, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	batch := []uint64{10, 11, 12, 13, 14, 15}
	if n := h.EnqueueBatch(batch); n != 4 {
		t.Fatalf("EnqueueBatch = %d, want 4 (per-shard capacity)", n)
	}
	for i := uint64(10); i < 14; i++ {
		v, ok := h.Dequeue()
		if !ok || v != i {
			t.Fatalf("got (%d,%v), want %d", v, ok, i)
		}
	}
}

func TestDequeueBatchDrainsAcrossShards(t *testing.T) {
	q := mustNew(t, 64, 3, nil)
	h1, _ := q.Acquire()
	h2, _ := q.Acquire()
	for i := uint64(0); i < 5; i++ {
		h1.Enqueue(i)
		h2.Enqueue(100 + i)
	}
	consumer, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, 16)
	if n := consumer.DequeueBatch(out); n != 10 {
		t.Fatalf("DequeueBatch = %d, want 10 (both shards drained)", n)
	}
	if n := consumer.DequeueBatch(out); n != 0 {
		t.Fatalf("empty queue yielded %d values", n)
	}
}

func TestCheckerMPMC(t *testing.T) {
	// Global no-loss/no-dup plus per-producer FIFO under concurrency —
	// the linearizable-per-shard composition property.
	q := mustNew(t, 256, 16, nil)
	a := &apiQueue{q: q}
	if err := checker.Run(a, checker.Config{Producers: 4, Consumers: 4, PerProducer: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerBatchedMPMC(t *testing.T) {
	q := mustNew(t, 256, 16, nil)
	a := &apiQueue{q: q}
	if err := checker.Run(a, checker.Config{Producers: 4, Consumers: 4, PerProducer: 5000, Batch: 32}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerSlowPath(t *testing.T) {
	// Patience 1 forces the wCQ helped slow path inside every shard.
	q := mustNew(t, 64, 14, &sharded.Options{
		Core: &ringcore.Options{EnqPatience: 1, DeqPatience: 1, HelpDelay: 1},
	})
	a := &apiQueue{q: q}
	if err := checker.Run(a, checker.Config{Producers: 3, Consumers: 3, PerProducer: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestUnboundedShards(t *testing.T) {
	// capacity is each shard's ring size here; tiny rings force real
	// turnover inside every shard during the checker run.
	q := mustNew(t, 16, 16, &sharded.Options{Unbounded: true})
	if q.Cap() != 0 {
		t.Fatalf("Cap() = %d, want 0 (no global bound)", q.Cap())
	}
	rest := q.Footprint()
	if rest == 0 {
		t.Fatal("zero footprint at rest")
	}
	h, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	// One handle's values go to its home shard and grow it far past a
	// single ring; FIFO must survive the rollovers, and the footprint
	// must rise and then come back near rest after the drain.
	const n = 1000
	for i := uint64(0); i < n; i++ {
		if !h.Enqueue(i) {
			t.Fatalf("unbounded shard reported full at %d", i)
		}
	}
	if q.Footprint() <= rest {
		t.Fatal("footprint did not grow across a buffered burst")
	}
	// The home shard alone links n/16 rings; the other three keep one.
	if got := q.Rings(); got < n/16 {
		t.Fatalf("Rings() = %d during the burst, want >= %d", got, n/16)
	}
	for i := uint64(0); i < n; i++ {
		v, ok := h.Dequeue()
		if !ok || v != i {
			t.Fatalf("got (%d,%v), want %d", v, ok, i)
		}
	}
	if got := q.Footprint(); got > 8*rest {
		t.Fatalf("retained %d B after drain (rest %d B)", got, rest)
	}
	a := &apiQueue{q: q}
	if err := checker.Run(a, checker.Config{Producers: 3, Consumers: 3, PerProducer: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestStealStrideBound checks the fairness bound of the steal scan: a
// consumer whose home shard is empty, facing two foreign shards that
// each hold more than stealStride values, takes at most stealStride
// consecutive values from one shard while the other still has some.
// Scalar Dequeue and DequeueBatch share the scan; the batch runs use a
// buffer that does not divide stealStride, so a run must be cut short
// at the bound rather than at a buffer boundary.
func TestStealStrideBound(t *testing.T) {
	const perShard = 2*sharded.StealStride + 44
	for _, c := range []struct {
		name string
		take func(h ringcore.Handle[uint64], buf []uint64) int
	}{
		{"Dequeue", func(h ringcore.Handle[uint64], buf []uint64) int {
			v, ok := h.Dequeue()
			if !ok {
				return 0
			}
			buf[0] = v
			return 1
		}},
		{"DequeueBatch", func(h ringcore.Handle[uint64], buf []uint64) int {
			return h.DequeueBatch(buf[:5])
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			q := mustNew(t, sharded.Shards*512, 3, nil)
			for p := 0; p < 2; p++ { // producers with homes 0 and 1
				h, err := q.Acquire()
				if err != nil {
					t.Fatal(err)
				}
				for i := uint64(0); i < perShard; i++ {
					if !h.Enqueue(uint64(p)<<32 | i) {
						t.Fatalf("producer %d: enqueue %d failed", p, i)
					}
				}
			}
			consumer, err := q.Acquire() // home 2, empty
			if err != nil {
				t.Fatal(err)
			}
			left := [2]int{perShard, perShard}
			next := [2]uint64{}
			last, run := -1, 0
			buf := make([]uint64, 5)
			for left[0]+left[1] > 0 {
				n := c.take(consumer, buf)
				if n == 0 {
					t.Fatalf("empty with %v values left", left)
				}
				for _, v := range buf[:n] {
					p := int(v >> 32)
					if v&(1<<32-1) != next[p] {
						t.Fatalf("shard %d: got value %d, want %d (per-shard FIFO)", p, v&(1<<32-1), next[p])
					}
					next[p]++
					if p == last {
						run++
					} else {
						last, run = p, 1
					}
					if run > sharded.StealStride && left[1-p] > 0 {
						t.Fatalf("%d consecutive values from shard %d while the other held %d",
							run, p, left[1-p])
					}
					left[p]--
				}
			}
		})
	}
}

// TestStealAccounting pins the steal events: one StealAttempt per
// foreign scan, scalar or batch, and one StealHit per scan that
// yields a value. A home hit that satisfies the call scans nothing.
func TestStealAccounting(t *testing.T) {
	sink := metrics.New()
	q := mustNew(t, 64, 3, &sharded.Options{Core: &ringcore.Options{Metrics: sink}})
	producer, _ := q.Acquire() // home 0
	consumer, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, attempts, hits uint64) {
		t.Helper()
		s := sink.Snapshot()
		if s.Counts[metrics.StealAttempt] != attempts || s.Counts[metrics.StealHit] != hits {
			t.Fatalf("%s: steal attempts/hits = %d/%d, want %d/%d", step,
				s.Counts[metrics.StealAttempt], s.Counts[metrics.StealHit], attempts, hits)
		}
	}
	for i := uint64(0); i < 5; i++ {
		producer.Enqueue(i)
	}
	consumer.Dequeue()
	consumer.Dequeue()
	check("two scalar steals", 2, 2)
	if n := consumer.DequeueBatch(make([]uint64, 8)); n != 3 {
		t.Fatalf("DequeueBatch = %d, want 3", n)
	}
	check("one batch steal", 3, 3)
	consumer.Dequeue()
	consumer.DequeueBatch(make([]uint64, 8))
	check("two empty scans", 5, 3)
	consumer.Enqueue(7)
	consumer.Enqueue(8)
	consumer.Dequeue()
	consumer.DequeueBatch(make([]uint64, 1))
	check("home hits", 5, 3)
}
