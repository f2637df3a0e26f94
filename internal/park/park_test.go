package park

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

func TestWakeWithNoWaitersIsNoop(t *testing.T) {
	var p Point
	p.Wake(1)
	p.WakeAll()
	if p.Waiters() != 0 {
		t.Fatalf("waiters = %d", p.Waiters())
	}
}

func TestPrepareWakeFinish(t *testing.T) {
	var p Point
	w := p.Prepare()
	if p.Waiters() != 1 {
		t.Fatalf("waiters = %d after Prepare", p.Waiters())
	}
	p.Wake(1)
	select {
	case <-w.Ready():
	case <-time.After(time.Second):
		t.Fatal("wake not delivered")
	}
	p.Finish(w)
	if p.Waiters() != 0 {
		t.Fatalf("waiters = %d after wake", p.Waiters())
	}
}

func TestAbortBeforeWake(t *testing.T) {
	var p Point
	w := p.Prepare()
	p.Abort(w)
	if p.Waiters() != 0 {
		t.Fatalf("waiters = %d after abort", p.Waiters())
	}
	p.Wake(1) // must not deliver to the aborted (recycled) waiter
}

func TestAbortForwardsConsumedWake(t *testing.T) {
	// w1 is woken but aborts (as a context-cancelled caller would);
	// the wake must be forwarded to w2.
	var p Point
	w1 := p.Prepare()
	w2 := p.Prepare()
	p.Wake(1) // targets w1 (FIFO)
	p.Abort(w1)
	select {
	case <-w2.Ready():
	case <-time.After(time.Second):
		t.Fatal("wake lost: not forwarded after abort")
	}
	p.Finish(w2)
}

func TestWakeN(t *testing.T) {
	var p Point
	ws := make([]*Waiter, 5)
	for i := range ws {
		ws[i] = p.Prepare()
	}
	p.Wake(3)
	for i := 0; i < 3; i++ {
		select {
		case <-ws[i].Ready():
			p.Finish(ws[i])
		case <-time.After(time.Second):
			t.Fatalf("waiter %d not woken by Wake(3)", i)
		}
	}
	for i := 3; i < 5; i++ {
		select {
		case <-ws[i].Ready():
			t.Fatalf("waiter %d woken beyond Wake(3)", i)
		default:
		}
	}
	p.WakeAll()
	for i := 3; i < 5; i++ {
		<-ws[i].Ready()
		p.Finish(ws[i])
	}
	if p.Waiters() != 0 {
		t.Fatalf("waiters = %d at end", p.Waiters())
	}
}

func TestFIFOWakeOrder(t *testing.T) {
	var p Point
	a, b := p.Prepare(), p.Prepare()
	p.Wake(1)
	select {
	case <-b.Ready():
		t.Fatal("second waiter woken before first")
	case <-a.Ready():
	case <-time.After(time.Second):
		t.Fatal("no wake")
	}
	p.Finish(a)
	p.Wake(1)
	<-b.Ready()
	p.Finish(b)
}

// TestNoLostWakeupProtocol hammers the register/re-check/wake protocol
// from many goroutines: a shared counter is the condition, every
// increment is followed by Wake(1), and consumers park whenever the
// re-check fails. Every increment must eventually be consumed.
func TestNoLostWakeupProtocol(t *testing.T) {
	var p Point
	var avail atomic.Int64
	const (
		producers = 4
		consumers = 4
		perProd   = 5000
	)
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < perProd; n++ {
				avail.Add(1)
				p.Wake(1)
			}
		}()
	}
	total := int64(producers * perProd)
	var consumed atomic.Int64
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Try to take one unit.
				for {
					cur := avail.Load()
					if cur <= 0 {
						break
					}
					if avail.CompareAndSwap(cur, cur-1) {
						if consumed.Add(1) == total {
							p.WakeAll() // release parked siblings
						}
						break
					}
				}
				if consumed.Load() >= total {
					return
				}
				w := p.Prepare()
				if avail.Load() > 0 || consumed.Load() >= total {
					p.Abort(w)
					continue
				}
				select {
				case <-w.Ready():
					p.Finish(w)
				case <-ctx.Done():
					p.Abort(w)
					t.Error("lost wakeup: consumer timed out")
					return
				}
			}
		}()
	}
	wg.Wait()
	if consumed.Load() != total {
		t.Fatalf("consumed %d of %d", consumed.Load(), total)
	}
}

// --- Claim-protocol (direct handoff) tests -------------------------

func TestClaimDeliverHandoff(t *testing.T) {
	var p Point
	var cell uint64
	w := p.PrepareXfer(unsafe.Pointer(&cell))
	cw, cp := p.Claim()
	if cw != w || cp != unsafe.Pointer(&cell) {
		t.Fatalf("Claim = %p, %p; want %p, %p", cw, cp, w, &cell)
	}
	if p.Waiters() != 0 {
		t.Fatalf("waiters = %d after Claim (claim must unlink)", p.Waiters())
	}
	*(*uint64)(cp) = 42
	p.Deliver(cw)
	select {
	case <-w.Ready():
	case <-time.After(time.Second):
		t.Fatal("Deliver sent no token")
	}
	if !w.Done() {
		t.Fatal("Done() = false after Deliver")
	}
	if cell != 42 {
		t.Fatalf("cell = %d, want 42", cell)
	}
	p.Finish(w)
}

func TestDisarmWithdrawsClaimability(t *testing.T) {
	var p Point
	var cell int
	w := p.PrepareXfer(unsafe.Pointer(&cell))
	if !w.Disarm() {
		t.Fatal("Disarm lost with no claimer")
	}
	if cw, _ := p.Claim(); cw != nil {
		t.Fatal("Claim succeeded on a disarmed waiter")
	}
	if p.Abort(w) {
		t.Fatal("Abort reported a handoff on a disarmed waiter")
	}
	if p.Waiters() != 0 {
		t.Fatalf("waiters = %d at end", p.Waiters())
	}
}

func TestClaimBeatsDisarm(t *testing.T) {
	var p Point
	var cell int
	w := p.PrepareXfer(unsafe.Pointer(&cell))
	cw, cp := p.Claim()
	if cw == nil {
		t.Fatal("Claim failed on an armed waiter")
	}
	if w.Disarm() {
		t.Fatal("Disarm won after Claim already had")
	}
	*(*int)(cp) = 7
	p.Deliver(cw)
	<-w.Ready()
	if !w.Done() || cell != 7 {
		t.Fatalf("Done = %v, cell = %d after losing Disarm", w.Done(), cell)
	}
	p.Finish(w)
}

// TestAbortLosesToClaim is the constructed-interleaving regression for
// the one linearization where "stop waiting" loses: the claimer wins
// the CAS and unlinks while the owner is deciding to abort. Abort must
// then block until the claimer's Deliver and return true, and the cell
// value counts as delivered — the owner consumes it instead of
// reporting its cancellation.
func TestAbortLosesToClaim(t *testing.T) {
	var p Point
	var cell uint64
	w := p.PrepareXfer(unsafe.Pointer(&cell))
	cw, cp := p.Claim() // claimer wins before the owner aborts
	if cw == nil {
		t.Fatal("Claim failed on an armed waiter")
	}
	aborted := make(chan bool, 1)
	go func() { aborted <- p.Abort(w) }()
	// Abort blocks on the token only Deliver sends, so it cannot have
	// resolved yet; this select documents the ordering rather than
	// proving it (the proof is the one-slot channel protocol).
	select {
	case r := <-aborted:
		t.Fatalf("Abort returned %v before Deliver", r)
	case <-time.After(10 * time.Millisecond):
	}
	*(*uint64)(cp) = 99
	p.Deliver(cw)
	select {
	case r := <-aborted:
		if !r {
			t.Fatal("Abort = false after a claimed handoff delivered")
		}
	case <-time.After(time.Second):
		t.Fatal("Abort never returned after Deliver")
	}
	if cell != 99 {
		t.Fatalf("cell = %d, want 99", cell)
	}
}

func TestClaimSkipsUnarmedWaiters(t *testing.T) {
	// A plain waiter ahead of an armed one must not block the claim:
	// the scan passes unarmed registrations and claims the oldest armed
	// one, leaving the plain waiter queued for a normal wake.
	var p Point
	var cell int
	plain := p.Prepare()
	armed := p.PrepareXfer(unsafe.Pointer(&cell))
	cw, _ := p.Claim()
	if cw != armed {
		t.Fatalf("Claim = %p, want the armed waiter %p", cw, armed)
	}
	if p.Waiters() != 1 {
		t.Fatalf("waiters = %d; the plain waiter must stay queued", p.Waiters())
	}
	p.Deliver(cw)
	<-armed.Ready()
	p.Finish(armed)
	p.Wake(1)
	<-plain.Ready()
	p.Finish(plain)
}

// TestClaimDisarmRace hammers the armed→claimed vs armed→idle CAS from
// both sides: every registration must resolve to exactly one of
// "claimed and delivered" or "disarmed and never touched". Run with
// -race.
func TestClaimDisarmRace(t *testing.T) {
	var p Point
	const rounds = 20000
	var delivered, kept atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // claimer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if w, cp := p.Claim(); w != nil {
				*(*uint64)(cp) = 1
				p.Deliver(w)
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		var cell uint64
		w := p.PrepareXfer(unsafe.Pointer(&cell))
		if w.Disarm() {
			// Withdrawn: no handoff can land; the cell must stay zero.
			if cell != 0 {
				t.Fatalf("round %d: disarmed cell = %d", i, cell)
			}
			kept.Add(1)
			if p.Abort(w) {
				t.Fatalf("round %d: Abort reported a handoff after a won Disarm", i)
			}
			continue
		}
		// A claimer won: the token and the value must both arrive.
		<-w.Ready()
		if !w.Done() || cell != 1 {
			t.Fatalf("round %d: lost Disarm but Done = %v, cell = %d", i, w.Done(), cell)
		}
		delivered.Add(1)
		p.Finish(w)
	}
	close(stop)
	wg.Wait()
	if delivered.Load()+kept.Load() != rounds {
		t.Fatalf("accounting: %d delivered + %d kept != %d rounds",
			delivered.Load(), kept.Load(), rounds)
	}
	if p.Waiters() != 0 {
		t.Fatalf("waiters = %d at end", p.Waiters())
	}
}
