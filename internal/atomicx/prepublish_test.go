package atomicx

import (
	"sync/atomic"
	"testing"
)

func TestPrepublishViewAliases(t *testing.T) {
	for _, n := range []int{0, 1, 3, 1024, 1 << 17} {
		s := make([]atomic.Uint64, n)
		p := Prepublish(s)
		if len(p) != n {
			t.Fatalf("len %d: view has %d words", n, len(p))
		}
		for i := range p {
			p[i] = uint64(i) * 0x9e37_79b9
		}
		for i := range s {
			if got, want := s[i].Load(), uint64(i)*0x9e37_79b9; got != want {
				t.Fatalf("len %d: word %d = %#x, want %#x", n, i, got, want)
			}
		}
	}
}
