// Zero-allocation guard: "no allocation per operation" is a headline
// claim of the paper's queues, and the native batch paths must not
// quietly break it (scratch buffers, escape-analysis regressions).
// testing.AllocsPerRun turns the claim into a regression test for
// every ring-based core, on the scalar AND batch hot paths. A bounded
// queue allocates at most once after construction, its free-index
// ring at the first recycle: the scalar pairs keep their slot in the
// handle and never make one, and the batch warmup makes it. The
// unbounded queues are measured in steady state (no ring turnover):
// the claim there is no allocation per operation, not no allocation
// per ring rollover.
//
// Every case runs twice — sink absent and sink attached — because the
// metrics layer makes the same claim: recording an event from a hot
// path is a padded-counter add, never an allocation.
package queues

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/queueapi"
)

// allocVariants lists the cores whose hot paths must be allocation
// free. The external baselines (MSQueue, LCRQ, YMC, CRTurn) allocate
// nodes/segments by design and are excluded. The Chan facades make the
// same claim for every operation that does not park; the root
// package's TestChanZeroAllocNonParking guards it on all five backends
// through the public API. The two sharded Chans are listed here too,
// so the sharded steal path stays checked with a sink attached.
var allocVariants = []string{"wCQ", "SCQ", "LSCQ", "UWCQ", "ChanSharded", "ChanShardedUnbounded"}

// allocConfigs pairs each variant run with a disabled and an enabled
// metrics sink.
var allocConfigs = []struct {
	label string
	sink  func() *metrics.Sink
}{
	{"nometrics", func() *metrics.Sink { return nil }},
	{"metrics", metrics.New},
}

func TestZeroAllocScalarHotPath(t *testing.T) {
	for _, name := range allocVariants {
		for _, mc := range allocConfigs {
			t.Run(name+"/"+mc.label, func(t *testing.T) {
				cfg := testCfg()
				cfg.Core.Metrics = mc.sink()
				q, err := New(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				h, err := q.Handle()
				if err != nil {
					t.Fatal(err)
				}
				// Warm the path (first unbounded op touches its view cache).
				if !h.Enqueue(1) {
					t.Fatal("warmup enqueue failed")
				}
				h.Dequeue()
				allocs := testing.AllocsPerRun(200, func() {
					h.Enqueue(42)
					h.Dequeue()
				})
				if allocs != 0 {
					t.Fatalf("scalar enqueue/dequeue pair allocates %.1f objects/op, want 0", allocs)
				}
			})
		}
	}
}

func TestZeroAllocBatchHotPath(t *testing.T) {
	const batch = 8
	for _, name := range allocVariants {
		for _, mc := range allocConfigs {
			t.Run(name+"/"+mc.label, func(t *testing.T) {
				cfg := testCfg()
				cfg.Core.Metrics = mc.sink()
				q, err := New(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				h, err := q.Handle()
				if err != nil {
					t.Fatal(err)
				}
				b, ok := h.(queueapi.Batcher)
				if !ok {
					t.Fatalf("%s handle has no native Batcher", name)
				}
				in := make([]uint64, batch)
				out := make([]uint64, batch)
				for i := range in {
					in[i] = uint64(i)
				}
				// Warm the path (wCQ handles grow their index scratch once).
				if n := b.EnqueueBatch(in); n != batch {
					t.Fatalf("warmup EnqueueBatch = %d", n)
				}
				if n := b.DequeueBatch(out); n != batch {
					t.Fatalf("warmup DequeueBatch = %d", n)
				}
				allocs := testing.AllocsPerRun(200, func() {
					b.EnqueueBatch(in)
					b.DequeueBatch(out)
				})
				if allocs != 0 {
					t.Fatalf("batch enqueue/dequeue pair allocates %.1f objects/op, want 0", allocs)
				}
			})
		}
	}
}

// TestZeroAllocSealedDrain covers the unbounded queues' other dequeue
// path: a sealed head ring is drained without recycling its indices.
// One full ring plus one value seals the head ring (the handle's home
// shard's, for ChanShardedUnbounded), and every measured dequeue stays
// inside it.
func TestZeroAllocSealedDrain(t *testing.T) {
	const batch = 8
	for _, name := range []string{"LSCQ", "UWCQ", "ChanShardedUnbounded"} {
		for _, mc := range allocConfigs {
			t.Run(name+"/"+mc.label, func(t *testing.T) {
				cfg := testCfg()
				cfg.Core.Metrics = mc.sink()
				q, err := New(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				h, err := q.Handle()
				if err != nil {
					t.Fatal(err)
				}
				b, ok := h.(queueapi.Batcher)
				if !ok {
					t.Fatalf("%s handle has no native Batcher", name)
				}
				for i := uint64(0); i <= uint64(cfg.Capacity); i++ {
					h.Enqueue(i)
				}
				// Warm the path (the first dequeue registers with the head ring).
				if _, ok := h.Dequeue(); !ok {
					t.Fatal("warmup Dequeue found nothing")
				}
				// 101 scalar dequeues and 11 batches of 8: 189 values,
				// all from the sealed ring's 256 minus the warmup.
				allocs := testing.AllocsPerRun(100, func() { h.Dequeue() })
				if allocs != 0 {
					t.Fatalf("scalar Dequeue from a sealed ring allocates %.1f objects/op, want 0", allocs)
				}
				out := make([]uint64, batch)
				allocs = testing.AllocsPerRun(10, func() {
					if b.DequeueBatch(out) != batch {
						t.Fatal("short batch inside the sealed ring")
					}
				})
				if allocs != 0 {
					t.Fatalf("DequeueBatch from a sealed ring allocates %.1f objects/op, want 0", allocs)
				}
			})
		}
	}
}

// TestZeroAllocStatsSnapshot pins the observation side: taking a
// Stats() snapshot copies fixed-size arrays and must not allocate
// either, so a scraper can poll a live queue without perturbing it.
func TestZeroAllocStatsSnapshot(t *testing.T) {
	cfg := testCfg()
	cfg.Core.Metrics = metrics.New()
	q, err := New("wCQ", cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := q.(interface{ Stats() metrics.Snapshot })
	if !ok {
		t.Fatal("wCQ wrapper has no Stats()")
	}
	var snap metrics.Snapshot
	allocs := testing.AllocsPerRun(100, func() {
		snap = s.Stats()
	})
	if allocs != 0 {
		t.Fatalf("Stats() allocates %.1f objects/op, want 0", allocs)
	}
	_ = snap
}
