// Cross-implementation conformance suite: every real queue must pass
// the same MPMC correctness checks (no loss, no duplication,
// per-producer FIFO, strict 1x1 order, full/empty drains).
package queues

import (
	"testing"

	"repro/internal/atomicx"
	"repro/internal/checker"
	"repro/internal/metrics"
	"repro/internal/queueapi"
	"repro/internal/ringcore"
)

func testCfg() Config {
	return Config{Capacity: 256, MaxThreads: 32}
}

func TestRegistry(t *testing.T) {
	if len(Names()) != 15 {
		t.Fatalf("registry has %d entries: %v", len(Names()), Names())
	}
	if _, err := New("nope", testCfg()); err == nil {
		t.Fatal("unknown name accepted")
	}
	for _, n := range Names() {
		q, err := New(n, testCfg())
		if err != nil {
			t.Fatalf("building %s: %v", n, err)
		}
		if q.Name() != n {
			t.Fatalf("built %q, asked for %q", q.Name(), n)
		}
	}
}

// conformRounds runs one subtest per registry queue in names: build
// the queue, check that its handle implements want (when non-nil),
// then run each of the checker's mixed scalar+batch rounds in cfgs on
// a fresh queue. The queues with a native queueapi.Batcher exercise
// their reservation path, the baselines the generic fallback.
func conformRounds(t *testing.T, names []string, want func(queueapi.Handle) bool, cfgs ...checker.Config) {
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			for _, cfg := range cfgs {
				q, err := New(name, testCfg())
				if err != nil {
					t.Fatal(err)
				}
				if want != nil {
					h, err := q.Handle()
					if err != nil {
						t.Fatal(err)
					}
					if !want(h) {
						t.Fatalf("%s handle lacks the blocking surface (%T)", name, h)
					}
				}
				if err := checker.Run(q, cfg); err != nil {
					t.Fatalf("%+v: %v", cfg, err)
				}
			}
		})
	}
}

func isWaitable(h queueapi.Handle) bool      { _, ok := h.(queueapi.Waitable); return ok }
func isBatchWaitable(h queueapi.Handle) bool { _, ok := h.(queueapi.BatchWaitable); return ok }

// The conformance table: each test below is one row of rounds over a
// slice of the registry.

// nonblockingRows is the line-up of the nonblocking rows: every real
// queue, plus the two Chans that buffer on internal/sharded, driven
// through TrySend/TryRecv, so the sharded steal scan meets the same
// shapes as a single ring.
func nonblockingRows() []string {
	return append(RealQueues(), "ChanSharded", "ChanShardedUnbounded")
}

// TestMPMCExactlyOnce: a 4x4 nonblocking round on every real queue.
func TestMPMCExactlyOnce(t *testing.T) {
	conformRounds(t, nonblockingRows(), nil,
		checker.Config{Producers: 4, Consumers: 4, PerProducer: 5000})
}

// TestSPSCOrder: a 1x1 round, where per-producer FIFO is strict
// global FIFO.
func TestSPSCOrder(t *testing.T) {
	conformRounds(t, nonblockingRows(), nil,
		checker.Config{Producers: 1, Consumers: 1, PerProducer: 30000})
}

// TestMPMCBatched: a nonblocking round with long batches (up to 64,
// a quarter of the test capacity) over the whole registry minus the
// FAA pseudo-queue, the Chan facades through TrySend/TryRecv.
func TestMPMCBatched(t *testing.T) {
	conformRounds(t, append(RealQueues(), BlockingQueues()...), nil,
		checker.Config{Producers: 3, Consumers: 3, PerProducer: 4000, Batch: 64})
}

// TestBlockingConformance: every Chan facade is a queueapi.Closer with
// Waitable handles, and passes both a nonblocking round and a blocking
// round — parked Send/SendMany and Recv/RecvMany, then Close and a
// drain to ErrClosed. The sender-heavy 6:2 blocking round fills the
// bounded buffers, so parked senders must be released by the plain
// not-full wake alone.
func TestBlockingConformance(t *testing.T) {
	for _, name := range BlockingQueues() {
		q, err := New(name, testCfg())
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := q.(queueapi.Closer); !ok {
			t.Fatalf("%s does not implement queueapi.Closer", name)
		}
	}
	conformRounds(t, BlockingQueues(), isWaitable,
		checker.Config{Producers: 3, Consumers: 3, PerProducer: 3000},
		checker.Config{Producers: 3, Consumers: 3, PerProducer: 3000, Blocking: true},
		checker.Config{Producers: 6, Consumers: 2, PerProducer: 3000, Blocking: true})
}

// TestBlockingBatchConformance: a blocking round with long batches,
// so SendMany parks mid-batch and the close-drain ends on a partial
// RecvMany.
func TestBlockingBatchConformance(t *testing.T) {
	conformRounds(t, BlockingQueues(), isBatchWaitable,
		checker.Config{Producers: 3, Consumers: 3, PerProducer: 3000, Batch: 64, Blocking: true})
}

func TestBlockingSlowpathConformance(t *testing.T) {
	// The wCQ-backed Chan with patience 1 + eager helping: parked
	// blocking ops layered over the helped slow paths.
	cfg := testCfg()
	cfg.Core = ringcore.Options{EnqPatience: 1, DeqPatience: 1, HelpDelay: 1}
	q, err := New("Chan", cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = checker.Run(q, checker.Config{
		Producers: 2, Consumers: 2, PerProducer: 2000, Blocking: true,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUnboundedConformance pins the unbounded line-up's registry
// contract: present in Names and RealQueues (LSCQ/UWCQ) or
// BlockingQueues (ChanUnbounded), Cap 0, never-full Enqueue, and a
// live Footprint that grows across a burst and, once it drains, is
// back to exactly one live ring (per shard).
func TestUnboundedConformance(t *testing.T) {
	real := map[string]bool{}
	for _, n := range RealQueues() {
		real[n] = true
	}
	blocking := map[string]bool{}
	for _, n := range BlockingQueues() {
		blocking[n] = true
	}
	for _, name := range UnboundedQueues() {
		name := name
		t.Run(name, func(t *testing.T) {
			if !real[name] && !blocking[name] {
				t.Fatalf("%s in neither RealQueues nor BlockingQueues", name)
			}
			cfg := testCfg()
			cfg.Capacity = 16 // per-ring: force turnover
			q, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if q.Cap() != 0 {
				t.Fatalf("Cap() = %d, want 0 (unbounded)", q.Cap())
			}
			h, err := q.Handle()
			if err != nil {
				t.Fatal(err)
			}
			rest := q.Footprint()
			if rest == 0 {
				t.Fatal("zero footprint at rest (has at least one ring)")
			}
			for i := 0; i < 1000; i++ {
				if !h.Enqueue(uint64(i)) {
					t.Fatalf("unbounded queue reported full at %d", i)
				}
			}
			if q.Footprint() <= rest {
				t.Fatal("footprint did not grow across a buffered burst")
			}
			for i := 0; i < 1000; i++ {
				if v, ok := h.Dequeue(); !ok || v != uint64(i) {
					t.Fatalf("dequeue %d = (%d, %v)", i, v, ok)
				}
			}
			// After a drain exactly one live ring per shard is left, each
			// at the size its own free-index ring gives it. A fresh
			// queue's one value in and out goes onto the handle's run
			// and builds no free-index ring: that is every ring without
			// one. A ring's worth and one more value in and out moves to
			// a second ring, whose first value leaves through the
			// one-value batch that crosses rings and so returns its
			// index to that ring's free-index ring: one ring more by the
			// free-index ring's size. The drained queue may hold any
			// number of its shards' rings with one.
			bare, shards := throughOneHandle(t, name, cfg, 1)
			built, _ := throughOneHandle(t, name, cfg, cfg.Capacity+1)
			fq := built - bare
			if built <= bare || rest != bare {
				t.Fatalf("fresh queue: %d B at rest, %d B after one value, %d B after %d", rest, bare, built, cfg.Capacity+1)
			}
			got, rings := q.Footprint(), ringsOf(t, q)
			if rings != shards || got < bare || (got-bare)%fq != 0 || (got-bare)/fq > uint64(shards) {
				t.Fatalf("retained %d B in %d rings after drain (rest %d B), want one live ring per shard (%d), %d B plus up to %d free-index rings of %d B", got, rings, rest, shards, bare, shards, fq)
			}
		})
	}
}

// ringsOf returns the live ring count of unbounded queue q.
func ringsOf(t *testing.T, q queueapi.Queue) int {
	t.Helper()
	rq, ok := q.(interface{ Rings() int })
	if !ok {
		t.Fatalf("%T does not report its rings", q)
	}
	return rq.Rings()
}

// throughOneHandle returns the footprint and ring count of a fresh
// queue name after values 0..k-1 went in and out, in order, through a
// first handle.
func throughOneHandle(t *testing.T, name string, cfg Config, k uint64) (uint64, int) {
	t.Helper()
	q, err := New(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Handle()
	if err != nil {
		t.Fatal(err)
	}
	for v := range k {
		if !h.Enqueue(v) {
			t.Fatal("an unbounded queue reported full")
		}
	}
	for i := range k {
		if v, ok := h.Dequeue(); !ok || v != i {
			t.Fatalf("dequeue %d = (%d, %v)", i, v, ok)
		}
	}
	return q.Footprint(), ringsOf(t, q)
}

func TestLCRQUnavailableUnderEmulation(t *testing.T) {
	// CountingFAA is EmulatedFAA plus a tally, so it excludes LCRQ too.
	for _, mode := range []atomicx.Mode{atomicx.EmulatedFAA, atomicx.CountingFAA} {
		cfg := testCfg()
		cfg.Core.Mode = mode
		if _, err := New("LCRQ", cfg); err == nil {
			t.Fatalf("LCRQ built under %v; the paper omits it on PowerPC", mode)
		}
	}
}

// TestSinkReachesEveryQueue builds every ring-based queue and every
// Chan facade with a metrics sink in Config.Core and checks that one
// Enqueue shows up in Stats: the first enqueue into an empty wCQ or SCQ
// ring re-arms its emptiness threshold, which records threshold_reset.
func TestSinkReachesEveryQueue(t *testing.T) {
	baselines := map[string]bool{"LCRQ": true, "YMC": true, "CRTurn": true, "CCQueue": true, "MSQueue": true, "FAA": true}
	checked := 0
	for _, name := range Names() {
		if baselines[name] {
			continue
		}
		checked++
		t.Run(name, func(t *testing.T) {
			cfg := testCfg()
			cfg.Core.Metrics = metrics.New()
			q, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			h, err := q.Handle()
			if err != nil {
				t.Fatal(err)
			}
			if !h.Enqueue(1) {
				t.Fatal("Enqueue into an empty queue failed")
			}
			s, ok := q.(queueapi.Statser)
			if !ok {
				t.Fatalf("%T has no Stats", q)
			}
			if snap := s.Stats(); snap.Counts[metrics.ThresholdReset] < 1 {
				t.Fatalf("threshold_reset = %d after one Enqueue, want >= 1", snap.Counts[metrics.ThresholdReset])
			}
		})
	}
	if checked != 9 {
		t.Fatalf("checked %d ring-based and Chan queues, want 9", checked)
	}
}

func TestDrainCycles(t *testing.T) {
	for _, name := range nonblockingRows() {
		name := name
		t.Run(name, func(t *testing.T) {
			q, err := New(name, testCfg())
			if err != nil {
				t.Fatal(err)
			}
			if err := checker.RunDrain(q, 20000); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMPMCEmulatedFAA(t *testing.T) {
	// The PowerPC configuration: every F&A is a CAS loop; LCRQ excluded.
	for _, name := range nonblockingRows() {
		if name == "LCRQ" {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := testCfg()
			cfg.Core.Mode = atomicx.EmulatedFAA
			q, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = checker.Run(q, checker.Config{
				Producers: 3, Consumers: 3, PerProducer: 3000,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMPMCAsymmetric(t *testing.T) {
	// Many producers, one consumer and vice versa stress different
	// contention corners (ring wrap vs. emptiness detection).
	shapes := []struct{ p, c int }{{6, 1}, {1, 6}}
	for _, name := range nonblockingRows() {
		for _, sh := range shapes {
			name, sh := name, sh
			t.Run(name, func(t *testing.T) {
				q, err := New(name, testCfg())
				if err != nil {
					t.Fatal(err)
				}
				err = checker.Run(q, checker.Config{
					Producers: sh.p, Consumers: sh.c, PerProducer: 3000,
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestWCQTinyCapacityContention(t *testing.T) {
	// Tiny rings maximize wrap-around and slow-path traffic for the
	// bounded queues.
	for _, name := range []string{"wCQ", "SCQ"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := testCfg()
			cfg.Capacity = 4
			q, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = checker.Run(q, checker.Config{
				Producers: 3, Consumers: 3, PerProducer: 4000,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBoundedFullBehaviour(t *testing.T) {
	// Bounded queues must report full exactly at capacity.
	for _, name := range []string{"wCQ", "SCQ"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := testCfg()
			cfg.Capacity = 8
			q, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			h, err := q.Handle()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				if !h.Enqueue(uint64(i)) {
					t.Fatalf("full at %d, capacity 8", i)
				}
			}
			if h.Enqueue(99) {
				t.Fatal("enqueue beyond capacity succeeded")
			}
			if q.Cap() != 8 {
				t.Fatalf("Cap() = %d", q.Cap())
			}
		})
	}
}

func TestFootprintSemantics(t *testing.T) {
	// wCQ, SCQ and the sharded Chans have footprints from
	// construction; LCRQ's grows with allocated rings.
	cfg := testCfg()
	for _, name := range []string{"wCQ", "SCQ", "ChanSharded", "ChanShardedUnbounded"} {
		q, _ := New(name, cfg)
		if q.Footprint() == 0 {
			t.Errorf("%s: zero footprint", name)
		}
	}
	q, _ := New("LCRQ", cfg)
	if q.Footprint() == 0 {
		t.Error("LCRQ: zero initial footprint (has one ring)")
	}
}

// TestNativeBatchers pins which registry handles expose the native
// queueapi.Batcher: every ring-based queue and facade in this
// repository, i.e. everything but the paper's external baselines.
func TestNativeBatchers(t *testing.T) {
	native := []string{"wCQ", "SCQ", "LSCQ", "UWCQ", "Chan", "ChanSCQ", "ChanSharded", "ChanShardedUnbounded", "ChanUnbounded"}
	for _, name := range native {
		q, err := New(name, testCfg())
		if err != nil {
			t.Fatal(err)
		}
		h, err := q.Handle()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := h.(queueapi.Batcher); !ok {
			t.Errorf("%s handle does not implement queueapi.Batcher", name)
		}
	}
}

func TestChanShardedBatcherInterface(t *testing.T) {
	// The ChanSharded handle must expose the native batcher so
	// harnesses skip the one-at-a-time fallback.
	q, err := New("ChanSharded", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Handle()
	if err != nil {
		t.Fatal(err)
	}
	b, ok := h.(queueapi.Batcher)
	if !ok {
		t.Fatal("ChanSharded handle does not implement queueapi.Batcher")
	}
	vs := []uint64{1, 2, 3, 4, 5}
	if n := b.EnqueueBatch(vs); n != len(vs) {
		t.Fatalf("EnqueueBatch = %d, want %d", n, len(vs))
	}
	out := make([]uint64, 8)
	if n := b.DequeueBatch(out); n != len(vs) {
		t.Fatalf("DequeueBatch = %d, want %d", n, len(vs))
	}
	// One handle's batch comes back in enqueue order (per-shard FIFO).
	for i, v := range out[:len(vs)] {
		if v != vs[i] {
			t.Fatalf("out[%d] = %d, want %d", i, v, vs[i])
		}
	}
}

// TestChanRings pins the ring gauge of the unbounded Chans: rings
// linked to absorb a burst must show through the same interface check
// the stress daemon's rings gauge makes, for both the single-ring and
// the sharded backend.
func TestChanRings(t *testing.T) {
	for _, name := range []string{"ChanUnbounded", "ChanShardedUnbounded"} {
		t.Run(name, func(t *testing.T) {
			cfg := testCfg()
			cfg.Capacity = 4
			q, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			h, err := q.Handle()
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 64; i++ {
				if !h.Enqueue(i) {
					t.Fatalf("TrySend %d failed on an unbounded Chan", i)
				}
			}
			r, ok := q.(interface{ Rings() int })
			if !ok {
				t.Fatalf("%s does not report Rings()", name)
			}
			if got := r.Rings(); got < 4 {
				t.Fatalf("Rings() = %d after 64 values in 4-slot rings, want >= 4", got)
			}
		})
	}
}
