package park

import (
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestWakeAllWakesEveryWaiter is the no-lost-wakeup regression for
// WakeAll: a herd of real parked goroutines, and every single waiter
// must come back. Run under -race -cpu 2,4 in CI.
func TestWakeAllWakesEveryWaiter(t *testing.T) {
	const waiters = 67
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
		t.Fatalf("WakeAll lost wakeups: %d still registered", p.Waiters())
	}
	if p.Waiters() != 0 {
		t.Fatalf("waiters = %d after WakeAll", p.Waiters())
	}
	if got := sink.Snapshot().Counts[metrics.Wake]; got != uint64(waiters) {
		t.Fatalf("wake count = %d, want %d", got, waiters)
	}
}
