package ring

import (
	"testing"
	"testing/quick"
)

func TestOrder(t *testing.T) {
	cases := []struct {
		in   uint64
		want uint
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 16, 16}, {1<<16 + 1, 17}, {1 << 62, 62},
	}
	for _, c := range cases {
		if got := Order(c.in); got != c.want {
			t.Errorf("Order(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestOrderCovers(t *testing.T) {
	// 1<<Order(v) must always be >= v.
	f := func(v uint64) bool {
		v >>= 1 // keep 1<<Order(v) representable
		o := Order(v)
		return o <= 63 && (v == 0 || uint64(1)<<o >= v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsPow2(t *testing.T) {
	for _, v := range []uint64{1, 2, 4, 1 << 20, 1 << 63} {
		if !IsPow2(v) {
			t.Errorf("IsPow2(%d) = false", v)
		}
	}
	for _, v := range []uint64{0, 3, 6, 1<<20 + 1} {
		if IsPow2(v) {
			t.Errorf("IsPow2(%d) = true", v)
		}
	}
}

func TestRemapIdentitySmall(t *testing.T) {
	for order := uint(0); order <= EntriesPerLineShift; order++ {
		n := uint64(1) << order
		for i := uint64(0); i < n; i++ {
			if Remap(i, order) != i {
				t.Fatalf("order %d: Remap(%d) != identity", order, i)
			}
		}
	}
}

func TestRemapBijection(t *testing.T) {
	for _, order := range []uint{4, 5, 8, 12} {
		n := uint64(1) << order
		seen := make([]bool, n)
		for i := uint64(0); i < n; i++ {
			j := Remap(i, order)
			if j >= n {
				t.Fatalf("order %d: Remap(%d) = %d out of range", order, i, j)
			}
			if seen[j] {
				t.Fatalf("order %d: Remap not injective at %d", order, i)
			}
			seen[j] = true
		}
	}
}

func TestRemapSpreadsAdjacent(t *testing.T) {
	// Consecutive logical positions must land on different cache lines
	// (entries are 8 bytes; a line holds 8 of them).
	const order = 10
	for i := uint64(0); i < (1<<order)-1; i++ {
		a := Remap(i, order) >> EntriesPerLineShift
		b := Remap(i+1, order) >> EntriesPerLineShift
		if a == b {
			t.Fatalf("positions %d and %d share cache line %d", i, i+1, a)
		}
	}
}

func TestRemapLineReuseDistance(t *testing.T) {
	// The same cache line must not be reused earlier than after
	// 2^(order-3) consecutive positions.
	const order = 8
	lastUse := map[uint64]uint64{}
	minDist := uint64(1 << 62)
	for i := uint64(0); i < 1<<order; i++ {
		line := Remap(i, order) >> EntriesPerLineShift
		if prev, ok := lastUse[line]; ok {
			if d := i - prev; d < minDist {
				minDist = d
			}
		}
		lastUse[line] = i
	}
	if want := uint64(1) << (order - EntriesPerLineShift); minDist < want {
		t.Fatalf("cache line reused after %d steps, want >= %d", minDist, want)
	}
}

// line is the 64-byte line of entry j in an array of 8-byte entries.
func line(j uint64) uint64 { return j >> EntriesPerLineShift }

func TestSlotIsBijection(t *testing.T) {
	for order := uint(1); order <= 20; order++ {
		n := uint64(1) << order
		seen := make([]bool, n)
		for i := range n {
			j := Slot(i, order)
			if j >= n || seen[j] {
				t.Fatalf("order %d: Slot(%d) = %d, out of range or taken twice", order, i, j)
			}
			seen[j] = true
		}
	}
}

func TestSlotLines(t *testing.T) {
	for order := uint(1); order <= 20; order++ {
		n := uint64(1) << order
		for i := uint64(0); i+1 < n; i++ {
			// Positions t and t+1 never share a line, once the ring
			// has more than one.
			if order > EntriesPerLineShift && line(Slot(i, order)) == line(Slot(i+1, order)) {
				t.Fatalf("order %d: positions %d and %d share line %d", order, i, i+1, line(Slot(i, order)))
			}
		}
		if order < SpreadOrder {
			for i := range n {
				if Slot(i, order) != Remap(i, order) {
					t.Fatalf("order %d: Slot(%d) = %d, Remap gives %d", order, i, Slot(i, order), Remap(i, order))
				}
			}
			continue
		}
		for base := uint64(0); base < n; base += 16 {
			lines := map[uint64]bool{}
			for i := base; i < base+16; i++ {
				lines[line(Slot(i, order))] = true
			}
			if len(lines) != 2 {
				t.Fatalf("order %d: run %d..%d covers %d lines, want 2", order, base, base+15, len(lines))
			}
		}
	}
}
