// Contract test: both ring-core adapters (wCQ, SCQ) run through one
// shared suite, so any behavioral drift between the cores behind the
// Core/Handle contract fails here before a composition trips over it.
package ringcore

import (
	"testing"

	"repro/internal/atomicx"
)

// forEachKind runs the shared suite body once per registered kind.
func forEachKind(t *testing.T, body func(t *testing.T, kind Kind)) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) { body(t, kind) })
	}
}

func mustNew(t *testing.T, kind Kind, capacity uint64, maxThreads int) Core[uint64] {
	t.Helper()
	r, err := New[uint64](kind, capacity, maxThreads, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustAcquire(t *testing.T, c Core[uint64]) Handle[uint64] {
	t.Helper()
	h, err := c.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestKindNames(t *testing.T) {
	if KindWCQ.String() != "wCQ" || KindSCQ.String() != "SCQ" {
		t.Fatalf("kind names: %s, %s", KindWCQ, KindSCQ)
	}
	for _, kind := range Kinds() {
		got, err := KindByName(kind.String())
		if err != nil || got != kind {
			t.Fatalf("KindByName(%s) = (%v, %v)", kind, got, err)
		}
	}
	if _, err := KindByName("nope"); err == nil {
		t.Fatal("unknown kind name accepted")
	}
	if !KindWCQ.Census() || KindSCQ.Census() {
		t.Fatal("census flags inverted")
	}
}

func TestContractConstruction(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind Kind) {
		if _, err := New[uint64](kind, 24, 4, nil); err == nil {
			t.Fatal("non-power-of-two capacity accepted")
		}
		r := mustNew(t, kind, 64, 4)
		if r.Cap() != 64 {
			t.Fatalf("Cap() = %d, want 64", r.Cap())
		}
		if r.Footprint() == 0 {
			t.Fatal("zero footprint")
		}
		if r.Kind() != kind {
			t.Fatalf("Kind() = %v, want %v", r.Kind(), kind)
		}
	})
	if _, err := New[uint64](Kind(99), 64, 4, nil); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestContractScalarFIFO(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind Kind) {
		r := mustNew(t, kind, 8, 2)
		h := mustAcquire(t, r)
		for i := uint64(0); i < 8; i++ {
			if !h.Enqueue(i) {
				t.Fatalf("enqueue %d failed below capacity", i)
			}
		}
		if h.Enqueue(99) {
			t.Fatal("enqueue beyond capacity succeeded")
		}
		for i := uint64(0); i < 8; i++ {
			v, ok := h.Dequeue()
			if !ok || v != i {
				t.Fatalf("got (%d,%v), want %d", v, ok, i)
			}
		}
		if _, ok := h.Dequeue(); ok {
			t.Fatal("phantom value after drain")
		}
	})
}

func TestContractBatch(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind Kind) {
		r := mustNew(t, kind, 8, 2)
		h := mustAcquire(t, r)
		in := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
		if n := h.EnqueueBatch(in); n != 8 {
			t.Fatalf("EnqueueBatch into capacity 8 = %d, want the fitting prefix 8", n)
		}
		out := make([]uint64, 16)
		got := 0
		for got < 8 {
			n := h.DequeueBatch(out[got:])
			if n == 0 {
				t.Fatalf("lost values: drained %d of 8", got)
			}
			got += n
		}
		for i := 0; i < 8; i++ {
			if out[i] != in[i] {
				t.Fatalf("out[%d] = %d, want %d (prefix property)", i, out[i], in[i])
			}
		}
		if n := h.DequeueBatch(out); n != 0 {
			t.Fatalf("empty core yielded %d values", n)
		}
	})
}

func TestContractReuseAfterDrain(t *testing.T) {
	// Rings have no lifecycle: the unbounded construction seals and
	// drains its list nodes and recycles a drained ring as it stands.
	// So a ring filled to capacity and drained, round after round, must
	// keep taking values in FIFO order, and Empty must read true exactly
	// when every value has been taken.
	forEachKind(t, func(t *testing.T, kind Kind) {
		r := mustNew(t, kind, 8, 2)
		h := mustAcquire(t, r)
		for round := uint64(0); round < 3; round++ {
			if !r.Empty() {
				t.Fatalf("round %d: drained ring not Empty", round)
			}
			for i := uint64(0); i < 8; i++ {
				if !h.Enqueue(round*8 + i) {
					t.Fatalf("round %d: enqueue %d failed on a drained ring", round, i)
				}
			}
			if h.Enqueue(99) {
				t.Fatalf("round %d: enqueue beyond capacity succeeded", round)
			}
			if r.Empty() {
				t.Fatalf("round %d: full ring reported Empty", round)
			}
			for i := uint64(0); i < 8; i++ {
				if v, ok := h.Dequeue(); !ok || v != round*8+i {
					t.Fatalf("round %d: got (%d,%v), want %d", round, v, ok, round*8+i)
				}
			}
		}
		if !r.Empty() {
			t.Fatal("drained ring not Empty")
		}
	})
}

func TestContractCensus(t *testing.T) {
	// Acquire must honor the kind's census semantics: bounded for wCQ,
	// unlimited for SCQ.
	r := mustNew(t, KindWCQ, 8, 2)
	mustAcquire(t, r)
	mustAcquire(t, r)
	if _, err := r.Acquire(); err == nil {
		t.Fatal("wCQ census of 2 allowed a third handle")
	}
	s := mustNew(t, KindSCQ, 8, 1)
	for i := 0; i < 10; i++ {
		mustAcquire(t, s)
	}
}

func TestContractZeroAllocHotPaths(t *testing.T) {
	// The "never allocates after construction" claim, enforced at the
	// contract level for both adapters on the scalar AND batch paths
	// (the per-handle scratch warms up once).
	forEachKind(t, func(t *testing.T, kind Kind) {
		r := mustNew(t, kind, 64, 2)
		h := mustAcquire(t, r)
		in := make([]uint64, 16)
		out := make([]uint64, 16)
		if n := h.EnqueueBatch(in); n != 16 {
			t.Fatalf("warmup EnqueueBatch = %d", n)
		}
		if n := h.DequeueBatch(out); n != 16 {
			t.Fatalf("warmup DequeueBatch = %d", n)
		}
		allocs := testing.AllocsPerRun(200, func() {
			h.Enqueue(1)
			h.Dequeue()
			h.EnqueueBatch(in)
			h.DequeueBatch(out)
		})
		if allocs != 0 {
			t.Fatalf("hot paths allocate %.1f objects/op, want 0", allocs)
		}
	})
}

func TestContractEmulatedMode(t *testing.T) {
	// The Options plumbing reaches both cores: emulated F&A must stay
	// functionally identical.
	forEachKind(t, func(t *testing.T, kind Kind) {
		r, err := New[uint64](kind, 8, 2, &Options{Mode: atomicx.EmulatedFAA})
		if err != nil {
			t.Fatal(err)
		}
		h := mustAcquire(t, r)
		for i := uint64(0); i < 8; i++ {
			if !h.Enqueue(i) {
				t.Fatalf("emulated enqueue %d failed", i)
			}
		}
		for i := uint64(0); i < 8; i++ {
			if v, ok := h.Dequeue(); !ok || v != i {
				t.Fatalf("emulated got (%d,%v), want %d", v, ok, i)
			}
		}
	})
}
