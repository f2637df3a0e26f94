// Tests of the data array's layout and upkeep: which slot a fresh
// index names, which takes zero their slot (hasPointers), and what a
// slot costs in Footprint.
package ringcore

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/pad"
)

func TestFreshIndicesTakeSpreadSlots(t *testing.T) {
	// Fresh-counter value i names data slot i: the first lap writes
	// value i, however it was enqueued, into slot i.
	forEachKind(t, func(t *testing.T, kind Kind) {
		for _, n := range []uint64{8, 64} {
			for _, batch := range []bool{false, true} {
				t.Run(fmt.Sprintf("cap=%d/batch=%v", n, batch), func(t *testing.T) {
					q := mustNew(t, kind, n, 1)
					h, err := q.Register()
					if err != nil {
						t.Fatal(err)
					}
					vs := make([]uint64, n)
					for i := range vs {
						vs[i] = uint64(i) + 100
					}
					if batch {
						if got := h.EnqueueBatch(vs[:n/2]) + h.EnqueueBatch(vs[n/2:]); got != int(n) {
							t.Fatalf("EnqueueBatch took %d of %d", got, n)
						}
					} else {
						for _, v := range vs {
							if !h.Enqueue(v) {
								t.Fatalf("Enqueue(%d) failed below capacity", v)
							}
						}
					}
					for i := range n {
						if got := q.data[i]; got != vs[i] {
							t.Fatalf("slot %d holds %d, want %d", i, got, vs[i])
						}
					}
				})
			}
		}
	})
}

func TestHasPointers(t *testing.T) {
	type flat struct {
		a int
		b [2]float64
		c bool
	}
	type nested struct {
		f flat
		p *int
	}
	for _, tc := range []struct {
		typ  reflect.Type
		want bool
	}{
		{reflect.TypeFor[bool](), false},
		{reflect.TypeFor[int](), false},
		{reflect.TypeFor[int8](), false},
		{reflect.TypeFor[uint64](), false},
		{reflect.TypeFor[uintptr](), false},
		{reflect.TypeFor[float32](), false},
		{reflect.TypeFor[complex128](), false},
		{reflect.TypeFor[[0]*int](), false},
		{reflect.TypeFor[[4]uint64](), false},
		{reflect.TypeFor[struct{}](), false},
		{reflect.TypeFor[flat](), false},
		{reflect.TypeFor[[3]flat](), false},
		{reflect.TypeFor[*int](), true},
		{reflect.TypeFor[string](), true},
		{reflect.TypeFor[[]int](), true},
		{reflect.TypeFor[map[int]int](), true},
		{reflect.TypeFor[chan int](), true},
		{reflect.TypeFor[func()](), true},
		{reflect.TypeFor[any](), true},
		{reflect.TypeFor[error](), true},
		{reflect.TypeFor[unsafe.Pointer](), true},
		{reflect.TypeFor[nested](), true},
		{reflect.TypeFor[struct {
			n int
			s string
		}](), true},
		{reflect.TypeFor[[2]*int](), true},
		{reflect.TypeFor[[1][]byte](), true},
		{reflect.TypeFor[[2]struct {
			n int
			f func()
		}](), true},
		{reflect.TypeFor[struct{ a [1]any }](), true},
	} {
		if got := hasPointers(tc.typ); got != tc.want {
			t.Errorf("hasPointers(%v) = %v, want %v", tc.typ, got, tc.want)
		}
	}
}

func TestPointerFreeTakeKeepsSlot(t *testing.T) {
	// A uint64 slot holds nothing to release, so no take path writes
	// it: every taken value is still in the data array afterwards.
	forEachKind(t, func(t *testing.T, kind Kind) {
		q := mustNew(t, kind, 32, 1)
		h, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		v := uint64(1000)
		takes(t, h, func() uint64 { v++; return v }, func(path string, got []uint64) {
			for _, v := range got {
				if !slices.Contains(q.data, v) {
					t.Fatalf("%s: taken value %d is gone from its slot", path, v)
				}
			}
		})
	})
}

// checkSlotFootprint fails unless an n-slot queue of T built for
// maxThreads ids holds one kept-index line per id, whatever its kind,
// and reports aq's footprint, plus those lines, plus size bytes per
// data slot, and fq's footprint on top of that once a recycle has
// built fq.
func checkSlotFootprint[T any](t *testing.T, kind Kind, size uint64) {
	t.Helper()
	const n, maxThreads = 1024, 3
	q, err := New[T](kind, n, maxThreads, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.kept) != maxThreads {
		t.Fatalf("%v: %d kept-index lines for %d ids", reflect.TypeFor[T](), len(q.kept), maxThreads)
	}
	rings := q.aq.Footprint() + maxThreads*pad.CacheLineSize
	if got, want := q.Footprint(), rings+n*size; got != want {
		t.Fatalf("%v: Footprint = %d B, want %d B of aq and kept slots + %d x %d B", reflect.TypeFor[T](), got, rings, n, size)
	}
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	var v T
	if !h.Enqueue(v) || h.DequeueBatch(make([]T, 1)) != 1 {
		t.Fatalf("%v: one value did not pass through", reflect.TypeFor[T]())
	}
	rings += q.freeRing().Footprint()
	if got, want := q.Footprint(), rings+n*size; got != want {
		t.Fatalf("%v: Footprint = %d B after a recycle, want %d B of rings and kept slots + %d x %d B", reflect.TypeFor[T](), got, rings, n, size)
	}
}

func TestFootprintCountsSlotSize(t *testing.T) {
	// Each data slot costs the size of T, not one word, and each id
	// its kept-index line.
	forEachKind(t, func(t *testing.T, kind Kind) {
		checkSlotFootprint[uint64](t, kind, 8)
		checkSlotFootprint[string](t, kind, 2*uint64(unsafe.Sizeof(uintptr(0))))
		checkSlotFootprint[[3]uint64](t, kind, 24)
		checkSlotFootprint[struct{}](t, kind, 0)
	})
}
