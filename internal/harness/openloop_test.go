package harness

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/queues"
)

// TestOpenLoopSplit pins EvenSplit, the split the open-loop engine
// shares with the burst and stress workloads.
func TestOpenLoopSplit(t *testing.T) {
	for _, c := range []struct{ threads, p, c int }{
		{1, 1, 1}, {2, 1, 1}, {4, 2, 2}, {7, 3, 4},
	} {
		p, cons := EvenSplit(c.threads)
		if p != c.p || cons != c.c {
			t.Fatalf("EvenSplit(%d) = (%d, %d), want (%d, %d)", c.threads, p, cons, c.p, c.c)
		}
	}
}

// TestFullJitterBounds: every draw stays within [idleSleepBase,
// idleSleepCap] across attempts, including attempts far past the
// point where the exponential ceiling would overflow, and attempt 0
// yields the base exactly.
func TestFullJitterBounds(t *testing.T) {
	r := uint64(1)
	for attempt := 0; attempt < 100; attempt++ {
		ceil := idleSleepCap
		if attempt < 8 {
			ceil = idleSleepBase << attempt
		}
		for i := 0; i < 200; i++ {
			r = xorshift(r)
			d := fullJitter(r, attempt)
			if d < idleSleepBase || d > ceil {
				t.Fatalf("fullJitter(attempt=%d) = %v outside [%v, %v]", attempt, d, idleSleepBase, ceil)
			}
		}
	}
	if d := fullJitter(r, 0); d != idleSleepBase {
		t.Fatalf("fullJitter attempt 0 = %v, want base %v", d, idleSleepBase)
	}
}

// TestBackoffEscalation: the idle wait spins for idleSpins waits,
// yields for idleYields more, sleeps after that, and reset drops it
// back to the free spin level. Timing the spin level would be flaky;
// instead the sleep level is detected by elapsed wall clock.
func TestBackoffEscalation(t *testing.T) {
	b := newIdleBackoff(1)
	t0 := time.Now()
	for i := 0; i < idleSpins+idleYields; i++ {
		b.wait()
	}
	if free := time.Since(t0); free > 500*time.Millisecond {
		t.Fatalf("spin+yield waits took %v; a sleep leaked into the free levels", free)
	}
	t0 = time.Now()
	b.wait() // first sleeping wait: >= idleSleepBase
	if slept := time.Since(t0); slept < idleSleepBase {
		t.Fatalf("sleep-level wait returned after %v, want >= %v", slept, idleSleepBase)
	}
	b.reset()
	if b.n != 0 {
		t.Fatalf("reset left the level at %d", b.n)
	}
	t0 = time.Now()
	b.wait() // back at the free spin level
	if free := time.Since(t0); free > 500*time.Millisecond {
		t.Fatalf("post-reset wait took %v; reset did not drop the level", free)
	}
}

func TestSchedulePoissonMeanAndMonotone(t *testing.T) {
	const rate = 1e6
	sc := newSchedule(rate, 3)
	const n = 200_000
	prev := time.Duration(0)
	for i := 0; i < n; i++ {
		next := sc.advance()
		if next < prev {
			t.Fatalf("arrival %d at %v before predecessor %v", i, next, prev)
		}
		prev = next
	}
	// Mean inter-arrival over n exponential draws concentrates around
	// 1/rate: the sample mean's relative error is ~1/sqrt(n) ≈ 0.2%,
	// so a 5% band is deterministic in practice for a fixed seed.
	mean := float64(prev) / n
	if rel := math.Abs(mean-1e3) / 1e3; rel > 0.05 {
		t.Fatalf("mean inter-arrival %f ns, want 1000 ±5%%", mean)
	}
}

func TestScheduleIgnoresWallClock(t *testing.T) {
	// The coordinated-omission guard: the intended sequence is a pure
	// function of (rate, seed). Wall-clock delays between
	// draws — a stalled producer — must not shift a single arrival.
	a := newSchedule(1e6, 7)
	b := newSchedule(1e6, 7)
	for i := 0; i < 50; i++ {
		va := a.advance()
		if i == 10 {
			time.Sleep(5 * time.Millisecond) // the "stall"
		}
		if vb := b.advance(); va != vb {
			t.Fatalf("arrival %d: stalled schedule %v, undisturbed %v", i, va, vb)
		}
	}
}

func TestRunOpenLoopBothEnginePaths(t *testing.T) {
	// Chan exercises the parking Send/Recv path, wCQ the nonblocking
	// yield path; both must record every transfer exactly once.
	for _, name := range []string{"Chan", "wCQ"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := queues.Config{Capacity: 1 << 12}
			r, err := RunOpenLoop(name, cfg, OpenLoopOpts{
				Producers: 2, Consumers: 2, Ops: 2000, Rate: 2e6,
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.Latency.Count != 2000 {
				t.Fatalf("recorded %d latencies, want one per transfer (2000)", r.Latency.Count)
			}
			if r.AchievedMops <= 0 || r.OfferedMops != 2.0 {
				t.Fatalf("rates implausible: achieved %f, offered %f", r.AchievedMops, r.OfferedMops)
			}
			if r.Latency.Quantile(0.999) > r.Latency.Max {
				t.Fatalf("p99.9 %d above max %d", r.Latency.Quantile(0.999), r.Latency.Max)
			}
		})
	}
}

func TestRunOpenLoopRejectsBadOpts(t *testing.T) {
	cfg := queues.Config{Capacity: 64}
	if _, err := RunOpenLoop("Chan", cfg, OpenLoopOpts{Producers: 0, Consumers: 1, Ops: 10, Rate: 1e6}); err == nil {
		t.Fatal("zero producers accepted")
	}
	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := RunOpenLoop("Chan", cfg, OpenLoopOpts{Producers: 1, Consumers: 1, Ops: 10, Rate: rate}); err == nil {
			t.Fatalf("rate %g accepted", rate)
		}
	}
}

func TestRunOpenLoopChargesBacklogDelay(t *testing.T) {
	// The coordinated-omission acceptance test: offer load far past
	// capacity through a tiny ring (Poisson arrivals at 1e9/s, a mean
	// gap of 1 ns), so producers stall on a full queue while the
	// schedule marches on. Under the intended-time rule the
	// i-th transfer's latency is roughly its drain position, so the
	// MEAN latency must be a large fraction of the whole run's
	// duration. An engine that (wrongly) stamped actual send time
	// would report only the constant ring-depth delay — a tiny
	// fraction of the run — and fail this bound.
	const ops = 4000
	r, err := RunOpenLoop("Chan", queues.Config{Capacity: 64}, OpenLoopOpts{
		Producers: 1, Consumers: 1, Ops: ops, Rate: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsedNS := float64(ops) / (r.AchievedMops * 1e6) * 1e9
	if mean := r.Latency.Mean(); mean < 0.2*elapsedNS {
		t.Fatalf("mean latency %.0f ns under overload, want ≥20%% of the %.0f ns run (backlog not charged)",
			mean, elapsedNS)
	}
}

func TestLoadFigure(t *testing.T) {
	f, err := FigureByID("l1")
	if err != nil {
		t.Fatal(err)
	}
	if f.Sweep.Axis != LoadAxis || len(f.Sweep.Values) < 4 {
		t.Fatalf("figure l1 sweeps %d loads, want at least 4", len(f.Sweep.Values))
	}
	if len(f.Queues) < 5 {
		t.Fatalf("figure l1 has %d queues, want at least 5", len(f.Queues))
	}
	sawKnee := false
	for _, load := range f.Sweep.Values {
		if load > 1 {
			sawKnee = true
		}
	}
	if !sawKnee {
		t.Fatal("figure l1 never crosses the saturation knee (no load > 1.0)")
	}
	for _, name := range []string{"Chan", "wCQ", "SCQ"} {
		found := false
		for _, q := range f.Queues {
			if q == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("figure l1 missing %s", name)
		}
	}
}

func TestLoadFigureRunAndRender(t *testing.T) {
	f, err := FigureByID("l1")
	if err != nil {
		t.Fatal(err)
	}
	f.Sweep.Values = []float64{0.5} // scale the sweep down for CI
	opts := RunOpts{Ops: 3000, Reps: 1, Queues: []string{"Chan", "wCQ"}}
	pts := f.Run(opts)
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	for _, pt := range pts {
		if pt.Err != nil {
			t.Fatalf("%s: %v", pt.Queue, pt.Err)
		}
		if pt.Load != 0.5 || pt.OfferedMops <= 0 {
			t.Fatalf("load point underfilled: %+v", pt)
		}
		if pt.Latency.Count == 0 || pt.Mops.Mean <= 0 {
			t.Fatalf("%s: no latency recorded", pt.Queue)
		}
	}
	var sb strings.Builder
	f.Render(&sb, pts, opts)
	out := sb.String()
	if !strings.Contains(out, "Figure l1") || !strings.Contains(out, "p99") ||
		!strings.Contains(out, "poisson") || !strings.Contains(out, "0.50") {
		t.Fatalf("load render malformed:\n%s", out)
	}
}

func TestCalibrateCapacityPositive(t *testing.T) {
	c, err := CalibrateCapacity("wCQ", queues.Config{Capacity: 1 << 10}, 2, 4000, false)
	if err != nil || c <= 0 {
		t.Fatalf("capacity %f, err %v", c, err)
	}
	cb, err := CalibrateCapacity("Chan", queues.Config{Capacity: 1 << 10}, 2, 4000, true)
	if err != nil || cb <= 0 {
		t.Fatalf("blocking capacity %f, err %v", cb, err)
	}
}

func TestQueueIsBlocking(t *testing.T) {
	cfg := queues.Config{Capacity: 64}
	if !queueIsBlocking("Chan", cfg) {
		t.Fatal("Chan facade not detected as blocking")
	}
	if queueIsBlocking("wCQ", cfg) {
		t.Fatal("bare wCQ detected as blocking")
	}
}
