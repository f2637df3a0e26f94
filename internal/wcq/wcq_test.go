package wcq

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/atomicx"
	"repro/internal/metrics"
	"repro/internal/pad"
	"repro/internal/ring"
)

// newTestRing builds a ring with a registered handle, failing the test
// on any error.
func newTestRing(t *testing.T, capacity uint64, threads int, opts *Options) (*Ring, []*Handle) {
	t.Helper()
	q, err := NewRing(capacity, threads, opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := make([]*Handle, threads)
	for i := range hs {
		h, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
	}
	return q, hs
}

func TestRegisterCensus(t *testing.T) {
	q, err := NewRing(8, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Register(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Register(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Register(); err == nil {
		t.Fatal("third Register on maxThreads=2 succeeded")
	}
}

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(8, 0, nil); err == nil {
		t.Fatal("maxThreads=0 accepted")
	}
	if _, err := NewRing(8, MaxThreads+1, nil); err == nil {
		t.Fatal("maxThreads over census accepted")
	}
	if _, err := NewRing(7, 1, nil); err == nil {
		t.Fatal("non-power-of-two capacity accepted")
	}
}

func TestSequentialFIFO(t *testing.T) {
	_, hs := newTestRing(t, 8, 1, nil)
	h := hs[0]
	if _, ok := h.Dequeue(); ok {
		t.Fatal("dequeue on empty ring succeeded")
	}
	for i := uint64(0); i < 8; i++ {
		h.Enqueue(i)
	}
	for i := uint64(0); i < 8; i++ {
		v, ok := h.Dequeue()
		if !ok || v != i {
			t.Fatalf("dequeue %d: got (%d,%v)", i, v, ok)
		}
	}
	if _, ok := h.Dequeue(); ok {
		t.Fatal("dequeue after drain succeeded")
	}
}

func TestWrapAroundManyCycles(t *testing.T) {
	_, hs := newTestRing(t, 4, 1, nil)
	h := hs[0]
	for round := uint64(0); round < 3000; round++ {
		for i := uint64(0); i < 4; i++ {
			h.Enqueue(i)
		}
		for i := uint64(0); i < 4; i++ {
			v, ok := h.Dequeue()
			if !ok || v != i {
				t.Fatalf("round %d: got (%d,%v), want %d", round, v, ok, i)
			}
		}
	}
}

func TestNewFullRingOrder(t *testing.T) {
	q, err := NewFullRing(16, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := q.Register()
	for i := uint64(0); i < 16; i++ {
		v, ok := h.Dequeue()
		if !ok || v != i {
			t.Fatalf("got (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if _, ok := h.Dequeue(); ok {
		t.Fatal("full ring yielded more than capacity")
	}
}

func TestNewFullRingMatchesEnqueues(t *testing.T) {
	// The direct fill must leave word for word the state capacity
	// single-threaded fast-path enqueues leave, plus the same Head, Tail
	// and Threshold. The last capacity is the smallest whose ring
	// (2^SpreadOrder entries) ring.Slot lays out with spread, not Remap.
	for _, mode := range []atomicx.Mode{atomicx.NativeFAA, atomicx.EmulatedFAA, atomicx.CountingFAA} {
		for _, c := range []uint64{2, 4, 16, 256, 1 << 12, 1 << (ring.SpreadOrder - 1)} {
			opts := &Options{Mode: mode}
			got, err := NewFullRing(c, 1, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewRing(c, 1, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < c; i++ {
				if _, ok := want.tryEnqueue(i); !ok {
					t.Fatalf("%v cap %d: reference enqueue %d failed", mode, c, i)
				}
			}
			if got.head.Load() != want.head.Load() || got.tail.Load() != want.tail.Load() ||
				got.threshold.Load() != want.threshold.Load() {
				t.Fatalf("%v cap %d: head/tail/threshold %d/%d/%d, want %d/%d/%d", mode, c,
					got.head.Load(), got.tail.Load(), got.threshold.Load(),
					want.head.Load(), want.tail.Load(), want.threshold.Load())
			}
			for i := range want.entries {
				if g, w := got.entries[i].Load(), want.entries[i].Load(); g != w {
					t.Fatalf("%v cap %d: entry %d = %#x, want %#x", mode, c, i, g, w)
				}
			}
		}
	}
}

// forcedSlowOpts makes every contended operation take the slow path
// and help eagerly, maximizing coverage of slowFAA/tryEnqSlow/
// tryDeqSlow.
func forcedSlowOpts() *Options {
	return &Options{EnqPatience: 1, DeqPatience: 1, HelpDelay: 1}
}

func TestSequentialFIFOForcedSlow(t *testing.T) {
	// Even with patience 1 a single thread succeeds on the fast path's
	// first attempt most of the time; interleave full/empty transitions
	// to push it through the slow path via failed attempts.
	_, hs := newTestRing(t, 4, 2, forcedSlowOpts())
	h := hs[0]
	for round := 0; round < 2000; round++ {
		for i := uint64(0); i < 4; i++ {
			h.Enqueue(i)
		}
		for i := uint64(0); i < 4; i++ {
			v, ok := h.Dequeue()
			if !ok || v != i {
				t.Fatalf("round %d: got (%d,%v), want %d", round, v, ok, i)
			}
		}
		if _, ok := h.Dequeue(); ok {
			t.Fatal("phantom value")
		}
	}
}

// runMPMC moves perProducer tickets from p producers to c consumers
// through a ring of the given capacity and verifies exactly-once
// delivery of every (producer, seq) pair encoded in the indices.
//
// Ring indices must be < capacity, so indices are recycled through a
// channel-based credit pool while the logical payload identity is
// tracked in a side table written before enqueue and read after
// dequeue (the same indirection the paper's data queues use). The pool
// holds inflight indices (at most capacity): the ring never holds
// more, so a small pool keeps a large ring near empty, where
// dequeuers overtake enqueuers on the same tickets.
func runMPMC(t *testing.T, opts *Options, capacity, inflight uint64, p, c, perProducer int) {
	t.Helper()
	q, err := NewRing(capacity, p+c, opts)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]atomic.Uint64, inflight)
	credits := make(chan uint64, inflight)
	for i := uint64(0); i < inflight; i++ {
		credits <- i
	}
	total := p * perProducer
	delivered := make([]atomic.Int64, total)
	var consumed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < p; g++ {
		h, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, h *Handle) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				idx := <-credits
				payload[idx].Store(uint64(g*perProducer + i))
				h.Enqueue(idx)
			}
		}(g, h)
	}
	for g := 0; g < c; g++ {
		h, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(h *Handle) {
			defer wg.Done()
			for {
				if consumed.Load() >= int64(total) {
					return
				}
				idx, ok := h.Dequeue()
				if !ok {
					runtime.Gosched()
					continue
				}
				id := payload[idx].Load()
				delivered[id].Add(1)
				consumed.Add(1)
				credits <- idx
			}
		}(h)
	}
	wg.Wait()
	for id := range delivered {
		if n := delivered[id].Load(); n != 1 {
			t.Fatalf("payload %d delivered %d times", id, n)
		}
	}
}

func TestMPMCFastPath(t *testing.T) {
	runMPMC(t, nil, 64, 64, 4, 4, 5000)
}

func TestMPMCForcedSlowPath(t *testing.T) {
	runMPMC(t, forcedSlowOpts(), 8, 8, 4, 4, 3000)
}

func TestMPMCForcedSlowTinyRing(t *testing.T) {
	// Capacity 2 with 6 threads: every slot is contended, slow paths
	// and helping fire constantly.
	runMPMC(t, forcedSlowOpts(), 2, 2, 3, 3, 2000)
}

func TestMPMCForcedSlowSpreadRing(t *testing.T) {
	// The smallest ring whose entries ring.Slot places with spread
	// rather than Remap (2^SpreadOrder entries), with enough values to
	// take every entry through more than one cycle. Eight indices in
	// flight keep it near empty, so dequeuers overtake enqueuers and
	// both sides take the helped path.
	const capacity = 1 << (ring.SpreadOrder - 1)
	opts := forcedSlowOpts()
	opts.Metrics = metrics.New()
	runMPMC(t, opts, capacity, 8, 4, 4, capacity/2+1000)
	// How often a dequeuer overtakes depends on the schedule: under
	// -race at 2 and 4 Ps, hundreds of times a run; on one P, or in a
	// busy test binary, it can be never. The staged helper tests run
	// the slow path at this ring size on every schedule.
	t.Logf("slow paths: %d enqueue, %d dequeue",
		opts.Metrics.Count(metrics.EnqSlowPath), opts.Metrics.Count(metrics.DeqSlowPath))
}

func TestMPMCEmulatedFAA(t *testing.T) {
	runMPMC(t, &Options{Mode: atomicx.EmulatedFAA, EnqPatience: 2, DeqPatience: 2, HelpDelay: 1}, 16, 16, 3, 3, 3000)
}

func TestMPMCManyThreadsOversubscribed(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runMPMC(t, &Options{EnqPatience: 4, DeqPatience: 8, HelpDelay: 2}, 32, 32, 8, 8, 2000)
}

func TestPerProducerFIFO(t *testing.T) {
	// One producer, one consumer: global FIFO order must hold exactly,
	// including through slow paths.
	const total = 20000
	q, _ := NewRing(16, 2, forcedSlowOpts())
	hp, _ := q.Register()
	hc, _ := q.Register()
	payload := make([]atomic.Uint64, 16)
	credits := make(chan uint64, 16)
	for i := uint64(0); i < 16; i++ {
		credits <- i
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			idx := <-credits
			payload[idx].Store(uint64(i))
			hp.Enqueue(idx)
		}
	}()
	next := uint64(0)
	for next < total {
		idx, ok := hc.Dequeue()
		if !ok {
			runtime.Gosched()
			continue
		}
		got := payload[idx].Load()
		if got != next {
			t.Fatalf("out of order: got %d, want %d", got, next)
		}
		next++
		credits <- idx
	}
	wg.Wait()
}

func TestEmptyDequeueDoesNotAdvanceHead(t *testing.T) {
	q, hs := newTestRing(t, 8, 1, nil)
	h := hs[0]
	h.Enqueue(0)
	h.Dequeue()
	for i := 0; i < 200; i++ {
		h.Dequeue()
	}
	h0 := q.headCnt()
	for i := 0; i < 100; i++ {
		if _, ok := h.Dequeue(); ok {
			t.Fatal("phantom element")
		}
	}
	if q.headCnt() != h0 {
		t.Fatalf("empty dequeues advanced Head by %d", q.headCnt()-h0)
	}
}

func TestFootprintConstantUnderLoad(t *testing.T) {
	q, hs := newTestRing(t, 64, 2, forcedSlowOpts())
	f0 := q.Footprint()
	h := hs[0]
	for i := 0; i < 20000; i++ {
		h.Enqueue(uint64(i % 64))
		h.Dequeue()
	}
	if q.Footprint() != f0 {
		t.Fatalf("footprint changed %d -> %d", f0, q.Footprint())
	}
}

func TestRecSizeMatchesRecord(t *testing.T) {
	// Footprint charges recSize per record: the record rounded up to
	// whole lines, which must still cover its trailing pad line.
	size := uint64(unsafe.Sizeof(record{}))
	if recSize%pad.CacheLineSize != 0 || recSize < size || recSize-size >= pad.CacheLineSize {
		t.Fatalf("recSize %d is not record's %d B rounded up to %d B lines", recSize, size, pad.CacheLineSize)
	}
	var r record
	if shared := uint64(unsafe.Offsetof(r.seq2)) + 8; size < shared+pad.CacheLineSize {
		t.Fatalf("record is %d B, its shared fields end at %d B: no pad line after them", size, shared)
	}
	// The Fig. 10a footprints assume 192 B records on 64-bit targets.
	if unsafe.Sizeof(uintptr(0)) == 8 && recSize != 192 {
		t.Fatalf("recSize %d on a 64-bit target, want 192", recSize)
	}
	q, err := NewRing(64, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := q.Footprint(), uint64(128*8+3*recSize+6*pad.CacheLineSize); got != want {
		t.Fatalf("Footprint = %d, want %d", got, want)
	}
}

// TestRecordHoldsOnlySharedState: record is the state other threads
// read, so besides tid, fixed at construction, every field is an
// atomic word or padding. A plain field there would be thread-local
// state written on a line peers read on their helping scans; the
// helping cadence (nextCheck, nextTid) lives in the Handle for that
// reason.
func TestRecordHoldsOnlySharedState(t *testing.T) {
	recType := reflect.TypeFor[record]()
	var check func(typ reflect.Type, path string)
	check = func(typ reflect.Type, path string) {
		for i := range typ.NumField() {
			f := typ.Field(i)
			switch {
			case f.Name == "_", typ == recType && f.Name == "tid":
			case f.Type.PkgPath() == "sync/atomic":
			case f.Type.Kind() == reflect.Struct && f.Type.PkgPath() == recType.PkgPath():
				check(f.Type, path+f.Name+".")
			default:
				t.Errorf("record field %s%s is a plain %v", path, f.Name, f.Type)
			}
		}
	}
	check(recType, "")
}

func TestNoAllocationSteadyState(t *testing.T) {
	q, _ := NewRing(64, 2, nil)
	h, _ := q.Register()
	for i := 0; i < 100; i++ { // warm up
		h.Enqueue(uint64(i % 64))
		h.Dequeue()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		h.Enqueue(1)
		h.Dequeue()
	})
	if allocs != 0 {
		t.Fatalf("steady-state operations allocate %v bytes/op", allocs)
	}
}

func TestRingDrained(t *testing.T) {
	q, hs := newTestRing(t, 8, 1, nil)
	h := hs[0]
	if !q.Drained() {
		t.Fatal("fresh ring (head==tail) should report drained")
	}
	h.Enqueue(1)
	if q.Drained() {
		t.Fatal("ring with pending ticket reported drained")
	}
	h.Dequeue()
	if !q.Drained() {
		t.Fatal("consumed ring not drained")
	}
}
