package wcq

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// entry is the struct view of an entry word. The ring operations never
// build it; it stays here as the oracle their word operations are
// checked against, with pack and unpack written field by field from
// the package comment's bit table.
type entry struct {
	note  uint64 // cycle recorded by "avert" operations; 0 = none
	cycle uint64 // Value.Cycle
	safe  bool
	enq   bool
	index uint64 // a real index, oBottom or oBottomC
}

// oBottom and oBottomC stand for ⊥ and ⊥c in entry.index; pack codes
// them, and real indices, as the table does.
const (
	oBottom  = ^uint64(0) - 1
	oBottomC = ^uint64(0)
)

// oEmpty is the entry at construction: cycle 0, IsSafe, Enq and ⊥c.
var oEmpty = entry{safe: true, enq: true, index: oBottomC}

// The oracle's geometry, derived from the package comment's table
// rather than from words' masks.
func (l *layout) oCycMask() uint64       { return uint64(1)<<l.cycBits - 1 }
func (l *layout) oVCShift() uint         { return l.order + 2 }
func (l *layout) oNoteShift() uint       { return l.order + 2 + l.cycBits }
func (l *layout) oPendingBit() uint64    { return 1 << l.order }
func (l *layout) oUnsafeBit() uint64     { return 1 << (l.order + 1) }
func (l *layout) oCycle(c uint64) uint64 { return c >> l.order & l.oCycMask() }

// oBefore is the serial order of RFC 1982 on w-bit cycles a and b, a
// before b, with the distance of exactly half a window (which RFC 1982
// leaves undefined) read as "before" both ways, as the words' in-place
// comparisons read it.
func (l *layout) oBefore(a, b uint64) bool {
	half := uint64(1) << (l.cycBits - 1)
	return a < b && b-a <= half || a > b && a-b >= half
}

// oRaised is the Note a cycle-setting transition to cycle c leaves
// over note: note, or c when note comes before it.
func (l *layout) oRaised(note, c uint64) uint64 {
	if l.oBefore(note, c) {
		return c
	}
	return note
}

// pack assembles an entry word from its fields.
func (l *layout) pack(e entry) uint64 {
	w := e.note<<l.oNoteShift() | e.cycle<<l.oVCShift()
	switch e.index {
	case oBottomC: // Index 0
	case oBottom:
		w |= 1
	default:
		w |= e.index + 2
	}
	if !e.safe {
		w |= l.oUnsafeBit()
	}
	if !e.enq {
		w |= l.oPendingBit()
	}
	return w
}

// unpack splits an entry word into its fields.
func (l *layout) unpack(w uint64) entry {
	e := entry{
		note:  w >> l.oNoteShift() & l.oCycMask(),
		cycle: w >> l.oVCShift() & l.oCycMask(),
		safe:  w&l.oUnsafeBit() == 0,
		enq:   w&l.oPendingBit() == 0,
	}
	switch code := w & (l.nSlots - 1); code {
	case 0:
		e.index = oBottomC
	case 1:
		e.index = oBottom
	default:
		e.index = code - 2
	}
	return e
}

// everyLayout returns the layout of every supported capacity: orders 2
// (capacity 2) up to the largest whose cycle field keeps 16 bits.
func everyLayout(t *testing.T) []layout {
	t.Helper()
	var ls []layout
	for c := uint64(2); ; c <<= 1 {
		l, err := newLayout(c)
		if err != nil {
			break
		}
		ls = append(ls, l)
	}
	if len(ls) != 29 || ls[len(ls)-1].order != 30 {
		t.Fatalf("%d layouts up to order %d, want orders 2..30", len(ls), ls[len(ls)-1].order)
	}
	return ls
}

// sample is one random case at layout l: an entry, the counter (Head
// or Tail ticket) an operation holds, and an index to enqueue. The
// entry's cycle and note are drawn near the counter's cycle, or about
// half a window from it, and its index among ⊥, ⊥c and real indices,
// so every branch of the operations is exercised at every order. A
// quarter of the counters sit within three cycles of the cycle
// fields' wrap.
type sample struct {
	e     entry
	c     uint64
	index uint64
}

func randSample(l *layout, rng *rand.Rand) sample {
	cm, half := l.oCycMask(), uint64(1)<<(l.cycBits-1)
	c := rng.Uint64() & cntMask
	if rng.IntN(4) == 0 {
		c = (cm-2+rng.Uint64N(6))<<l.order | rng.Uint64N(l.nSlots)
	}
	cc := l.oCycle(c)
	near := func() uint64 {
		switch rng.IntN(5) {
		case 0:
			return cc
		case 1:
			return (cc - 1 - rng.Uint64N(3)) & cm
		case 2:
			return (cc + 1 + rng.Uint64N(3)) & cm
		case 3:
			return (cc + half - 1 + rng.Uint64N(3)) & cm
		}
		return rng.Uint64() & cm
	}
	e := entry{note: near(), cycle: near(), safe: rng.IntN(2) == 0, enq: rng.IntN(2) == 0}
	switch rng.IntN(3) {
	case 0:
		e.index = oBottom
	case 1:
		e.index = oBottomC
	default:
		e.index = rng.Uint64N(l.nSlots / 2)
	}
	if rng.IntN(8) == 0 {
		e.note = 0
	}
	return sample{e: e, c: c, index: rng.Uint64N(l.nSlots / 2)}
}

// forSamples runs f on n random samples at every supported order.
func forSamples(t *testing.T, n int, f func(l *layout, s sample) bool) {
	t.Helper()
	rng := rand.New(rand.NewPCG(35, 1))
	for _, l := range everyLayout(t) {
		for i := 0; i < n; i++ {
			s := randSample(&l, rng)
			if !f(&l, s) {
				t.Fatalf("order %d: mismatch at entry %+v, counter %#x, index %d", l.order, s.e, s.c, s.index)
			}
		}
	}
}

func TestLayoutGeometry(t *testing.T) {
	l, err := newLayout(1 << 16) // the paper's benchmark ring
	if err != nil {
		t.Fatal(err)
	}
	if l.nSlots != 1<<17 || l.order != 17 {
		t.Fatalf("nSlots=%d order=%d", l.nSlots, l.order)
	}
	if l.cycBits != 22 { // (62-17)/2
		t.Fatalf("cycBits=%d, want 22", l.cycBits)
	}
	for _, l := range everyLayout(t) {
		m := l.words
		if bottom != l.pack(entry{safe: true, enq: true, index: oBottom}) || idxBase != l.pack(entry{safe: true, enq: true, index: 0}) {
			t.Fatalf("order %d: bottom=%d idxBase=%d", l.order, bottom, idxBase)
		}
		if top := l.nSlots/2 - 1 + idxBase; top > m.idxMask {
			t.Fatalf("order %d: index %d is code %d, outside the Index field %#x", l.order, l.nSlots/2-1, top, m.idxMask)
		}
		if m.pendingBit() != l.oPendingBit() || m.unsafeBit() != l.oUnsafeBit() {
			t.Fatalf("order %d: pendingBit=%#x unsafeBit=%#x", l.order, m.pendingBit(), m.unsafeBit())
		}
		// The fields tile the word from bit 0 without overlapping,
		// and the Note field's top stays within 64 bits.
		if l.oNoteShift()+l.cycBits > 64 {
			t.Fatalf("order %d: note field overflows the word: shift %d width %d", l.order, l.oNoteShift(), l.cycBits)
		}
		fields := []uint64{m.idxMask, m.pendingBit(), m.unsafeBit(), m.cycMask, m.noteMask}
		var all uint64
		for _, f := range fields {
			if all&f != 0 || all+1 != f&-f {
				t.Fatalf("order %d: field %#x does not start where the fields below end (%#x)", l.order, f, all)
			}
			all |= f
		}
		if bits := l.oNoteShift() + l.cycBits; bits < 64 && all != uint64(1)<<bits-1 {
			t.Fatalf("order %d: fields cover %#x", l.order, all)
		}
	}
}

// TestEntryPackUnpackRoundTrip checks the oracle itself: pack and
// unpack are inverse at every order.
func TestEntryPackUnpackRoundTrip(t *testing.T) {
	forSamples(t, 2000, func(l *layout, s sample) bool {
		w := l.pack(s.e)
		return l.unpack(w) == s.e && l.pack(l.unpack(w)) == w
	})
}

// TestWordFieldsMatchOracle: every field read and comparison the ring
// operations make on a whole word agrees with the oracle's fields.
func TestWordFieldsMatchOracle(t *testing.T) {
	forSamples(t, 2000, func(l *layout, s sample) bool {
		m, e, w := l.words, s.e, l.pack(s.e)
		cw, nc, cc := m.cycleOf(s.c), l.noteOf(s.c), l.oCycle(s.c)
		return (m.index(w) == e.index || e.index == oBottom || e.index == oBottomC) &&
			m.isBottom(w) == (e.index == oBottom) &&
			m.cycle(w) == e.cycle<<l.oVCShift() &&
			m.note(w) == e.note<<l.oNoteShift() &&
			cw == cc<<l.oVCShift() &&
			nc == cc<<l.oNoteShift() &&
			(m.cycle(w) == cw) == (e.cycle == cc) &&
			m.cycBefore(m.cycle(w), cw) == l.oBefore(e.cycle, cc) &&
			m.cycBefore(cw, m.cycle(w)) == l.oBefore(cc, e.cycle) &&
			m.noteBefore(m.note(w), nc) == l.oBefore(e.note, cc) &&
			m.noteBefore(nc, m.note(w)) == l.oBefore(cc, e.note) &&
			m.free(w) == (e.index == oBottom || e.index == oBottomC) &&
			m.safe(w) == e.safe &&
			(w&m.pendingBit() == 0) == e.enq
	})
}

// TestWordTransitionsMatchOracle: each entry transition the ring
// operations write produces the word the oracle builds from fields.
func TestWordTransitionsMatchOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		word func(l *layout, w uint64, s sample) uint64
		want func(l *layout, e entry, s sample) entry
	}{
		{"enqueue", // enqueueAt
			func(l *layout, w uint64, s sample) uint64 {
				return l.words.enqueued(w, l.words.cycleOf(s.c), l.noteOf(s.c), s.index)
			},
			func(l *layout, e entry, s sample) entry {
				return entry{note: l.oRaised(e.note, l.oCycle(s.c)), cycle: l.oCycle(s.c), safe: true, enq: true, index: s.index}
			}},
		{"slow enqueue Enq=0", // tryEnqSlow's first step
			func(l *layout, w uint64, s sample) uint64 {
				return l.words.produced(w, l.words.cycleOf(s.c), l.noteOf(s.c), s.index)
			},
			func(l *layout, e entry, s sample) entry {
				return entry{note: l.oRaised(e.note, l.oCycle(s.c)), cycle: l.oCycle(s.c), safe: true, enq: false, index: s.index}
			}},
		{"dequeue ⊥", // dequeueAt and tryDeqSlow on a free entry
			func(l *layout, w uint64, s sample) uint64 {
				return l.words.passed(w, l.words.cycleOf(s.c), l.noteOf(s.c))
			},
			func(l *layout, e entry, s sample) entry {
				return entry{note: l.oRaised(e.note, l.oCycle(s.c)), cycle: l.oCycle(s.c), safe: e.safe, enq: true, index: oBottom}
			}},
		{"dequeue unsafe", // dequeueAt and tryDeqSlow on an older value
			func(l *layout, w uint64, s sample) uint64 { return l.words.unsafe(w) },
			func(l *layout, e entry, s sample) entry {
				e.safe = false
				return e
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forSamples(t, 2000, func(l *layout, s sample) bool {
				return tc.word(l, l.pack(s.e), s) == l.pack(tc.want(l, s.e, s))
			})
		})
	}
}

// TestWithNoteKeepsValue: the Note avert replaces Note and keeps Value.
func TestWithNoteKeepsValue(t *testing.T) {
	forSamples(t, 2000, func(l *layout, s sample) bool {
		want := s.e
		want.note = l.oCycle(s.c)
		return l.words.averted(l.pack(s.e), l.noteOf(s.c)) == l.pack(want)
	})
}

// TestConsumeANDSetsBottomC: AND-ing in consumeMask turns any index
// into ⊥c with Enq=1 and keeps cycle, safe and note — the consume
// invariant.
func TestConsumeANDSetsBottomC(t *testing.T) {
	forSamples(t, 2000, func(l *layout, s sample) bool {
		want := s.e
		want.index, want.enq = oBottomC, true
		return l.pack(s.e)&l.words.consumeMask() == l.pack(want)
	})
}

func TestNewLayoutValidation(t *testing.T) {
	for _, c := range []uint64{0, 1, 3, 12, 1 << 40} {
		if _, err := newLayout(c); err == nil {
			t.Errorf("capacity %d: expected error", c)
		}
	}
	for _, c := range []uint64{2, 8, 1 << 10, 1 << 16} {
		if _, err := newLayout(c); err != nil {
			t.Errorf("capacity %d: unexpected error %v", c, err)
		}
	}
}

func TestGlobalPacking(t *testing.T) {
	f := func(cnt uint64, tid uint16) bool {
		cnt &= cntMask
		w := packGlobal(cnt, uint64(tid))
		return globalCnt(w) == cnt && globalTidp(w) == uint64(tid)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGlobalFAALeavesTidIntact(t *testing.T) {
	// A fast-path F&A(+1) on the packed word must not disturb the tid
	// component (until a 2^48 counter overflow, which we do not model).
	w := packGlobal(12345, 7)
	w++
	if globalTidp(w) != 7 || globalCnt(w) != 12346 {
		t.Fatalf("after increment: cnt=%d tidp=%d", globalCnt(w), globalTidp(w))
	}
}

func TestCycleOfTruncates(t *testing.T) {
	l, _ := newLayout(8) // order 4
	m := l.words
	if m.cycleOf(16) != 1<<l.oVCShift() || m.cycleOf(31) != m.cycleOf(16) || m.cycleOf(32) != 2<<l.oVCShift() {
		t.Fatal("cycleOf arithmetic wrong")
	}
	// Truncation wraps at 2^w, at every order.
	for _, l := range everyLayout(t) {
		big := (uint64(1)<<l.cycBits + 3) << l.order
		if got := l.words.cycleOf(big); got != 3<<l.oVCShift() {
			t.Fatalf("order %d: cycleOf(big) = %#x, want cycle 3", l.order, got)
		}
		if got := l.noteOf(big); got != 3<<l.oNoteShift() {
			t.Fatalf("order %d: noteOf(big) = %#x, want note 3", l.order, got)
		}
	}
}

func TestFlagsDisjointFromCounter(t *testing.T) {
	if flagINC&cntMask != 0 || flagFIN&cntMask != 0 || flagINC == flagFIN {
		t.Fatal("flag bits overlap the counter")
	}
}

// TestInitialWord: the zero word, which make leaves in every entry, is
// the empty entry at cycle 0, at every order.
func TestInitialWord(t *testing.T) {
	for _, l := range everyLayout(t) {
		if e := l.unpack(0); e != oEmpty || l.pack(oEmpty) != 0 {
			t.Fatalf("order %d: the zero word unpacked to %+v, and %+v packs to %#x", l.order, e, oEmpty, l.pack(oEmpty))
		}
	}
}
