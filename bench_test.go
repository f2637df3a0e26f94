// Benchmark harness: one testing.B benchmark per figure of the wCQ
// paper's evaluation (Figs. 10a-12c), plus microbenchmarks of the
// public API. `go test -bench=Fig -benchmem` prints a compact series
// per figure; `cmd/wcqbench` produces the full tables.
package wfqueue_test

import (
	"fmt"
	"testing"

	wfqueue "repro"

	"repro/internal/harness"
	"repro/internal/queues"
	"repro/internal/ringcore"
)

// benchFigure drives a scaled-down version of one paper figure under
// the Go benchmark framework. Throughput (the paper's metric) is
// reported as the custom metric Mops/s per queue/thread combination.
func benchFigure(b *testing.B, id string) {
	f, err := harness.FigureByID(id)
	if err != nil {
		b.Fatal(err)
	}
	// Keep benchmark wall time sane on small hosts: truncate the sweep
	// and the per-point op count; cmd/wcqbench runs the full sweeps.
	threads := []int{1, 4}
	for _, name := range f.Queues {
		for _, th := range threads {
			b.Run(fmt.Sprintf("%s/threads=%d", name, th), func(b *testing.B) {
				cfg := queues.Config{Capacity: 1 << 12, MaxThreads: th + 1, Core: ringcore.Options{Mode: f.Mode}}
				pt := harness.RunPoint(name, cfg, f.Workload, harness.PointOpts{
					Threads: th,
					Ops:     max(b.N, 10_000),
					Reps:    1,
					Delays:  f.Delays,
					Memory:  f.Memory,
				})
				if pt.Err != nil {
					b.Skipf("unavailable: %v", pt.Err)
				}
				b.ReportMetric(pt.Mops.Mean, "Mops/s")
				if f.Memory {
					b.ReportMetric(pt.MemoryMB, "MB")
				}
			})
		}
	}
}

func BenchmarkFig10a_MemoryUsage(b *testing.B)      { benchFigure(b, "10a") }
func BenchmarkFig10b_MemoryThroughput(b *testing.B) { benchFigure(b, "10b") }
func BenchmarkFig11a_EmptyDequeue(b *testing.B)     { benchFigure(b, "11a") }
func BenchmarkFig11b_Pairwise(b *testing.B)         { benchFigure(b, "11b") }
func BenchmarkFig11c_Mixed5050(b *testing.B)        { benchFigure(b, "11c") }
func BenchmarkFig12a_EmptyDequeuePPC(b *testing.B)  { benchFigure(b, "12a") }
func BenchmarkFig12b_PairwisePPC(b *testing.B)      { benchFigure(b, "12b") }
func BenchmarkFig12c_Mixed5050PPC(b *testing.B)     { benchFigure(b, "12c") }

// --- Public API microbenchmarks ---

func BenchmarkWCQPairSequential(b *testing.B) {
	q, _ := wfqueue.New[uint64](1<<12, 2)
	h, _ := q.Handle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Enqueue(uint64(i))
		h.Dequeue()
	}
}

func BenchmarkSCQPairSequential(b *testing.B) {
	q, _ := wfqueue.NewLockFree[uint64](1 << 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(uint64(i))
		q.Dequeue()
	}
}

func BenchmarkGoChannelPairSequential(b *testing.B) {
	// Reference point for the paper's motivation: Go buffered channels
	// are the language's built-in MPMC queue.
	ch := make(chan uint64, 1<<12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch <- uint64(i)
		<-ch
	}
}

func BenchmarkWCQPairParallel(b *testing.B) {
	q, _ := wfqueue.New[uint64](1<<12, 64)
	b.RunParallel(func(pb *testing.PB) {
		h, err := q.Handle()
		if err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			h.Enqueue(1)
			h.Dequeue()
		}
	})
}

func BenchmarkSCQPairParallel(b *testing.B) {
	q, _ := wfqueue.NewLockFree[uint64](1 << 12)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q.Enqueue(1)
			q.Dequeue()
		}
	})
}

func BenchmarkGoChannelPairParallel(b *testing.B) {
	ch := make(chan uint64, 1<<12)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			ch <- 1
			<-ch
		}
	})
}

func BenchmarkWCQEmptyDequeue(b *testing.B) {
	q, _ := wfqueue.New[uint64](1<<12, 2)
	h, _ := q.Handle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Dequeue()
	}
}

func BenchmarkRingIndexPool(b *testing.B) {
	pool, _ := wfqueue.NewRing(1<<10, 2, true)
	h, _ := pool.Handle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, _ := h.Dequeue()
		h.Enqueue(idx)
	}
}

// BenchmarkAblationPatience quantifies the fast-path/slow-path split
// (slow-path ablation): patience 1 forces the helped slow path often;
// the default 16/64 keeps it rare.
func BenchmarkAblationPatience(b *testing.B) {
	for _, pat := range []struct {
		name     string
		enq, deq int
	}{{"patience=1", 1, 1}, {"patience=default", 0, 0}} {
		b.Run(pat.name, func(b *testing.B) {
			var opts []wfqueue.Option
			if pat.enq > 0 {
				opts = append(opts, wfqueue.WithPatience(pat.enq, pat.deq))
			}
			q, _ := wfqueue.New[uint64](1<<10, 8, opts...)
			b.RunParallel(func(pb *testing.PB) {
				h, err := q.Handle()
				if err != nil {
					b.Error(err)
					return
				}
				for pb.Next() {
					h.Enqueue(1)
					h.Dequeue()
				}
			})
		})
	}
}

// BenchmarkAblationEmulatedFAA quantifies the native-vs-emulated F&A
// gap (the x86 vs PowerPC distinction of Figs. 11/12).
func BenchmarkAblationEmulatedFAA(b *testing.B) {
	for _, m := range []struct {
		name string
		opts []wfqueue.Option
	}{{"native", nil}, {"emulated", []wfqueue.Option{wfqueue.WithEmulatedFAA()}}} {
		b.Run(m.name, func(b *testing.B) {
			q, _ := wfqueue.New[uint64](1<<10, 8, m.opts...)
			b.RunParallel(func(pb *testing.PB) {
				h, err := q.Handle()
				if err != nil {
					b.Error(err)
					return
				}
				for pb.Next() {
					h.Enqueue(1)
					h.Dequeue()
				}
			})
		})
	}
}
