package harness

import (
	"strings"
	"testing"

	"repro/internal/atomicx"
	"repro/internal/queues"
	"repro/internal/ringcore"
)

func smallOpts(threads int) PointOpts {
	return PointOpts{Threads: threads, Ops: 4000, Reps: 2}
}

func TestRunPointAllQueuesAllWorkloads(t *testing.T) {
	for _, name := range append(queues.RealQueues(), "FAA") {
		for _, w := range []Workload{Pairwise, Mixed, EmptyDeq} {
			name, w := name, w
			t.Run(name+"/"+w.String(), func(t *testing.T) {
				cfg := queues.Config{Capacity: 1 << 10, MaxThreads: 8}
				pt := RunPoint(name, cfg, w, smallOpts(3))
				if pt.Err != nil {
					t.Fatalf("point error: %v", pt.Err)
				}
				if pt.Mops.Mean <= 0 {
					t.Fatalf("non-positive throughput: %+v", pt.Mops)
				}
			})
		}
	}
}

func TestRunPointMemoryProbe(t *testing.T) {
	cfg := queues.Config{Capacity: 1 << 10, MaxThreads: 8}
	pt := RunPoint("wCQ", cfg, Mixed, PointOpts{Threads: 2, Ops: 4000, Reps: 1, Delays: true, Memory: true})
	if pt.Err != nil {
		t.Fatal(pt.Err)
	}
	if pt.MemoryMB <= 0 {
		t.Fatal("wCQ memory probe reported zero (static footprint must show)")
	}
}

func TestLCRQUnavailableProducesErrPoint(t *testing.T) {
	cfg := queues.Config{Capacity: 1 << 10, MaxThreads: 8, Core: ringcore.Options{Mode: atomicx.EmulatedFAA}}
	pt := RunPoint("LCRQ", cfg, Pairwise, smallOpts(2))
	if pt.Err == nil {
		t.Fatal("expected error point for LCRQ under emulation")
	}
}

func TestFiguresComplete(t *testing.T) {
	figs := Figures()
	if len(figs) != 13 {
		t.Fatalf("have %d figures, want 13 (10a-12c + b1 + u1 + p2 + l1 + w1)", len(figs))
	}
	want := []string{"10a", "10b", "11a", "11b", "11c", "12a", "12b", "12c", "b1", "u1", "p2", "l1", "w1"}
	for i, f := range figs {
		if f.ID != want[i] {
			t.Fatalf("figure %d is %q, want %q", i, f.ID, want[i])
		}
		if len(f.Sweep.Values) == 0 || len(f.Queues) == 0 {
			t.Fatalf("figure %s underspecified", f.ID)
		}
		// Burst, batch and load sweeps run at one fixed thread count.
		if fixed := f.Sweep.Axis != ThreadsAxis && f.Sweep.Axis != WaitersAxis; fixed != (f.Threads > 0) {
			t.Fatalf("figure %s: %s sweep with fixed thread count %d", f.ID, f.Sweep.Axis, f.Threads)
		}
	}
	// PowerPC figures must use emulation and exclude LCRQ.
	for _, id := range []string{"12a", "12b", "12c"} {
		f, err := FigureByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if f.Mode != atomicx.EmulatedFAA {
			t.Fatalf("figure %s not emulated", id)
		}
		for _, q := range f.Queues {
			if q == "LCRQ" {
				t.Fatalf("figure %s includes LCRQ", id)
			}
		}
	}
	if _, err := FigureByID("99z"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestFigureRunAndRender(t *testing.T) {
	f, err := FigureByID("11b")
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOpts{Ops: 2000, Reps: 1, MaxThreads: 2, Queues: []string{"wCQ", "SCQ"}}
	pts := f.Run(opts)
	if len(pts) != 4 { // 2 queues x threads {1,2}
		t.Fatalf("got %d points", len(pts))
	}
	var sb strings.Builder
	f.Render(&sb, pts, opts)
	out := sb.String()
	if !strings.Contains(out, "Figure 11b") || !strings.Contains(out, "wCQ") {
		t.Fatalf("render output malformed:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + title + 2 thread rows
		t.Fatalf("unexpected table shape:\n%s", out)
	}
}

func TestRunPointBatched(t *testing.T) {
	// The batched loop must work for a native Batcher across ring
	// turnover (UWCQ) and on a single ring (wCQ), on every workload.
	for _, name := range []string{"UWCQ", "wCQ"} {
		for _, w := range []Workload{Pairwise, Mixed, EmptyDeq} {
			name, w := name, w
			t.Run(name+"/"+w.String(), func(t *testing.T) {
				cfg := queues.Config{Capacity: 1 << 10, MaxThreads: 8}
				opts := smallOpts(3)
				opts.Batch = 16
				pt := RunPoint(name, cfg, w, opts)
				if pt.Err != nil {
					t.Fatalf("point error: %v", pt.Err)
				}
				if pt.Mops.Mean <= 0 {
					t.Fatalf("non-positive throughput: %+v", pt.Mops)
				}
			})
		}
	}
}

func TestBurstFigure(t *testing.T) {
	f, err := FigureByID("u1")
	if err != nil {
		t.Fatal(err)
	}
	if f.Sweep.Axis != BurstAxis || len(f.Sweep.Values) == 0 {
		t.Fatal("figure u1 has no burst sweep")
	}
	for _, name := range []string{"LSCQ", "UWCQ", "ChanUnbounded"} {
		found := false
		for _, q := range f.Queues {
			if q == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("figure u1 missing %s", name)
		}
	}
	// A scaled-down run: small bursts over small rings must still
	// report positive throughput and a live memory axis.
	cfg := queues.Config{Capacity: 64, MaxThreads: 8}
	for _, name := range f.Queues {
		name := name
		t.Run(name, func(t *testing.T) {
			s, err := runBurstOnce(name, cfg, 2048, PointOpts{Threads: 4})
			if err != nil {
				t.Fatal(err)
			}
			if s.mops <= 0 {
				t.Fatal("no throughput measured")
			}
			if s.memMB <= 0 {
				t.Fatal("no peak footprint measured (unbounded Footprint must be live)")
			}
			if s.fpMB <= 0 {
				t.Fatal("no post-drain footprint measured")
			}
		})
	}
}

func TestBurstFigureRunAndRender(t *testing.T) {
	f, err := FigureByID("u1")
	if err != nil {
		t.Fatal(err)
	}
	f.Sweep.Values = []float64{256, 512} // scale the sweep down for CI
	opts := RunOpts{Reps: 1, Queues: []string{"LSCQ"}, Capacity: 16}
	pts := f.Run(opts)
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	for _, pt := range pts {
		if pt.Err != nil {
			t.Fatalf("%s/%d: %v", pt.Queue, pt.Burst, pt.Err)
		}
		if pt.Burst == 0 || pt.MemoryMB <= 0 {
			t.Fatalf("burst point underfilled: %+v", pt)
		}
	}
	var sb strings.Builder
	f.Render(&sb, pts, opts)
	out := sb.String()
	if !strings.Contains(out, "Figure u1") || !strings.Contains(out, "peakMB") || !strings.Contains(out, "256") {
		t.Fatalf("burst render malformed:\n%s", out)
	}
}

func TestBatchFigure(t *testing.T) {
	f, err := FigureByID("p2")
	if err != nil {
		t.Fatal(err)
	}
	if f.Sweep.Axis != BatchAxis || len(f.Sweep.Values) == 0 {
		t.Fatal("figure p2 has no batch sweep")
	}
	if f.Sweep.Values[0] != 1 {
		t.Fatal("figure p2 must include the scalar baseline (batch 1)")
	}
	for _, name := range []string{"wCQ", "SCQ", "UWCQ"} {
		found := false
		for _, q := range f.Queues {
			if q == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("figure p2 missing %s", name)
		}
	}
}

func TestBatchFigureRunAndRender(t *testing.T) {
	f, err := FigureByID("p2")
	if err != nil {
		t.Fatal(err)
	}
	f.Sweep.Values = []float64{1, 8} // scale the sweep down for CI
	opts := RunOpts{Ops: 4000, Reps: 1, Queues: []string{"wCQ"}, Capacity: 1 << 10}
	pts := f.Run(opts)
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	for _, pt := range pts {
		if pt.Err != nil {
			t.Fatalf("%s/%d: %v", pt.Queue, pt.Batch, pt.Err)
		}
		if pt.Batch == 0 || pt.Mops.Mean <= 0 {
			t.Fatalf("batch point underfilled: %+v", pt)
		}
	}
	var sb strings.Builder
	f.Render(&sb, pts, opts)
	out := sb.String()
	if !strings.Contains(out, "Figure p2") || !strings.Contains(out, "batch") || !strings.Contains(out, "wCQ") {
		t.Fatalf("batch render malformed:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title + header + 2 batch rows
		t.Fatalf("unexpected table shape:\n%s", out)
	}
}

func TestBlockingSplit(t *testing.T) {
	for _, c := range []struct{ threads, p, c int }{
		{1, 1, 1}, {2, 1, 1}, {4, 1, 3}, {8, 2, 6}, {72, 18, 54},
	} {
		p, cons := BlockingSplit(c.threads)
		if p != c.p || cons != c.c {
			t.Fatalf("BlockingSplit(%d) = (%d, %d), want (%d, %d)", c.threads, p, cons, c.p, c.c)
		}
	}
}

func TestBlockingFigure(t *testing.T) {
	f, err := FigureByID("b1")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Blocking {
		t.Fatal("figure b1 not marked blocking")
	}
	opts := RunOpts{Ops: 4000, Reps: 1, MaxThreads: 2}
	pts := f.Run(opts)
	if len(pts) != len(f.Queues) {
		t.Fatalf("got %d points, want %d", len(pts), len(f.Queues))
	}
	for _, pt := range pts {
		if pt.Err != nil {
			t.Fatalf("%s: %v", pt.Queue, pt.Err)
		}
		if pt.Mops.Mean <= 0 {
			t.Fatalf("%s: no throughput measured", pt.Queue)
		}
	}
}

func TestWaiterFigureRunAndRender(t *testing.T) {
	f, err := FigureByID("w1")
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOpts{Ops: 4000, Reps: 1, Sweeps: map[Axis][]float64{WaitersAxis: {8}}}
	pts := f.Run(opts)
	if len(pts) != len(f.Queues) {
		t.Fatalf("got %d points, want one per queue (%d)", len(pts), len(f.Queues))
	}
	for _, pt := range pts {
		if pt.Err != nil {
			t.Fatalf("%s: %v", pt.Queue, pt.Err)
		}
		if pt.Threads != 8 || pt.Mops.Mean <= 0 || pt.Latency.Count == 0 {
			t.Fatalf("%s: waiter point underfilled: %+v", pt.Queue, pt)
		}
	}
	var sb strings.Builder
	f.Render(&sb, pts, opts)
	out := sb.String()
	// One row per waiter count; each queue gets Mops/s and the wait
	// p50/p99/max columns, and the measured 8-waiter row fills all 8.
	if !strings.Contains(out, "Figure w1") || !strings.Contains(out, "\nwaiters\tChan Mops/s\t") ||
		!strings.Contains(out, "\tChanSharded Mops/s\tChanSharded wait p50(µs)\tChanSharded wait p99(µs)\tChanSharded wait max(µs)\n") {
		t.Fatalf("waiter render malformed:\n%s", out)
	}
	row := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "8\t") {
			row = line
		}
	}
	if cells := strings.Split(row, "\t"); len(cells) != 9 || strings.Contains(row, "n/a") {
		t.Fatalf("waiter render has no full 8-waiter row:\n%s", out)
	}
}

func TestBlockingPointRejectsNonBlockingQueue(t *testing.T) {
	pt := RunPoint("wCQ", queues.Config{Capacity: 256}, Pairwise, PointOpts{
		Threads: 2, Ops: 100, Reps: 1, Blocking: true,
	})
	if pt.Err == nil {
		t.Fatal("blocking point over a nonblocking queue did not error")
	}
}

func TestWakeupLatency(t *testing.T) {
	for _, name := range queues.BlockingQueues() {
		name := name
		t.Run(name, func(t *testing.T) {
			hist, err := WakeupLatency(name, queues.Config{Capacity: 256}, 8)
			if err != nil {
				t.Fatal(err)
			}
			if hist.Count != 8 || hist.Mean() <= 0 {
				t.Fatalf("latency histogram count %d mean %f", hist.Count, hist.Mean())
			}
			if hist.Quantile(0.999) > hist.Max || hist.Quantile(0.5) == 0 {
				t.Fatalf("latency percentiles implausible: p50 %d p99.9 %d max %d",
					hist.Quantile(0.5), hist.Quantile(0.999), hist.Max)
			}
		})
	}
}

func TestWakeupLatencyRejectsNonBlockingQueue(t *testing.T) {
	if _, err := WakeupLatency("wCQ", queues.Config{Capacity: 256}, 2); err == nil {
		t.Fatal("WakeupLatency over a nonblocking queue did not error")
	}
}

func TestFormatPointsNA(t *testing.T) {
	f := Figure{ID: "t", Queues: []string{"LCRQ"}, Sweep: Sweep{ThreadsAxis, []float64{1}}}
	var sb strings.Builder
	f.Render(&sb, []Point{{Queue: "LCRQ", Threads: 1, Err: errFake}}, RunOpts{})
	if out := sb.String(); !strings.HasSuffix(out, "\nthreads\tLCRQ\n1\tn/a\n") {
		t.Fatalf("missing n/a cell: %q", out)
	}
}

var errFake = errStr("unavailable")

type errStr string

func (e errStr) Error() string { return string(e) }

func TestXorshiftNonDegenerate(t *testing.T) {
	seen := map[uint64]bool{}
	x := uint64(1)
	for i := 0; i < 1000; i++ {
		x = xorshift(x)
		if seen[x] {
			t.Fatalf("cycle after %d steps", i)
		}
		seen[x] = true
	}
}
