package park

import (
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestStaggeredWakeAllWakesEveryWaiter is the no-lost-wakeup
// regression for the tranched WakeAll: many real parked goroutines, a
// herd several tranches deep, and every single waiter must come back.
// Run under -race -cpu 2,4 in CI.
func TestStaggeredWakeAllWakesEveryWaiter(t *testing.T) {
	tranche := trancheSize()
	waiters := 4*tranche + 3
	var p Point
	sink := metrics.New()
	p.SetMetrics(sink)

	var registered, woken sync.WaitGroup
	registered.Add(waiters)
	woken.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			w := p.Prepare()
			registered.Done()
			<-w.Ready()
			p.Finish(w)
			woken.Done()
		}()
	}
	registered.Wait()
	for p.Waiters() != waiters {
		// Prepare has returned everywhere, so the count is already
		// there; this is belt and braces against a reordered Done.
		time.Sleep(time.Millisecond)
	}
	p.WakeAll()

	done := make(chan struct{})
	go func() { woken.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("staggered WakeAll lost wakeups: %d still registered", p.Waiters())
	}
	if p.Waiters() != 0 {
		t.Fatalf("waiters = %d after WakeAll", p.Waiters())
	}

	snap := sink.Snapshot()
	if got := snap.Counts[metrics.Wake]; got != uint64(waiters) {
		t.Fatalf("wake count = %d, want %d", got, waiters)
	}
	wantTranches := uint64((waiters + tranche - 1) / tranche)
	if got := snap.Counts[metrics.WakeTranche]; got != wantTranches {
		t.Fatalf("tranche count = %d, want %d (tranche size %d)", got, wantTranches, tranche)
	}
	if snap.Tranches.Count != wantTranches || snap.Tranches.Max != uint64(tranche) {
		t.Fatalf("tranche-size histogram = count %d max %d, want count %d max %d",
			snap.Tranches.Count, snap.Tranches.Max, wantTranches, tranche)
	}
}

// TestWakeAllSingleTrancheFastPath: a herd smaller than the tranche
// is released in one tranche, like the pre-stagger WakeAll.
func TestWakeAllSingleTrancheFastPath(t *testing.T) {
	var p Point
	sink := metrics.New()
	p.SetMetrics(sink)
	ws := make([]*Waiter, trancheSize()-1)
	for i := range ws {
		ws[i] = p.Prepare()
	}
	p.WakeAll()
	for _, w := range ws {
		select {
		case <-w.Ready():
			p.Finish(w)
		case <-time.After(time.Second):
			t.Fatal("waiter not woken")
		}
	}
	snap := sink.Snapshot()
	if got := snap.Counts[metrics.WakeTranche]; got != 1 {
		t.Fatalf("tranche count = %d, want 1", got)
	}
	if snap.Tranches.Max != uint64(len(ws)) {
		t.Fatalf("tranche size = %d, want %d", snap.Tranches.Max, len(ws))
	}
}
