// Package atomicx wraps the handful of atomic read-modify-write
// operations the queue algorithms rely on, and provides the
// "emulated F&A" mode used to reproduce the paper's PowerPC results
// (Fig. 12) on a machine that has native fetch-and-add.
//
// The paper's evaluation distinguishes two hardware regimes:
//
//   - x86-64: native (wait-free) F&A and atomic OR (AND here); double-width CAS.
//   - PowerPC/MIPS: LL/SC only — F&A becomes a CAS/LL-SC loop, and wCQ
//     runs its §4 reduced-width encoding.
//
// Go exposes only the native path. To exercise the second regime we
// route every F&A through Counter, which either issues a hardware
// XADD (atomic.Uint64.Add) or spins on CompareAndSwap exactly like an
// LL/SC expansion would. The emulation flag is fixed at construction
// time so the branch predicts perfectly and does not distort the
// comparison.
//
// Prepublish is the one sanctioned plain (non-atomic) access to atomic
// words: a constructor's view of an array it has not published yet.
package atomicx

import "sync/atomic"

// Mode selects how fetch-and-add is executed.
type Mode uint8

const (
	// NativeFAA issues hardware fetch-and-add (x86-64 XADD, AArch64
	// LDADD). This is the paper's x86 configuration.
	NativeFAA Mode = iota
	// EmulatedFAA expands fetch-and-add into a CAS retry loop, the way
	// PowerPC/MIPS expand it via LL/SC. This is the paper's Fig. 12
	// configuration.
	EmulatedFAA
	// CountingFAA behaves like EmulatedFAA and additionally counts
	// every fetch-and-add the counter executes (Adds reads the tally).
	// It exists so tests can assert F&A amortization — e.g. that a
	// native batch operation issues exactly one Head/Tail F&A per
	// fast-path batch — without instrumenting the native hot path.
	CountingFAA
)

// String names the mode as the figures do.
func (m Mode) String() string {
	switch m {
	case EmulatedFAA:
		return "emulated-faa"
	case CountingFAA:
		return "counting-faa"
	}
	return "native-faa"
}

// Emulated reports whether the mode routes fetch-and-add through a
// CAS loop (EmulatedFAA and its counting variant).
func (m Mode) Emulated() bool { return m != NativeFAA }

// FetchAdd atomically adds d to *p and returns the PREVIOUS value
// (the algorithms in the paper are written against F&A, which returns
// the old value, unlike atomic.Int64.Add). With emulate set it spins
// on CompareAndSwap, the way an LL/SC architecture expands F&A. It is
// the one F&A of the repository: Counter.Add and the rings' Threshold
// counters both run it.
//
//wfq:noalloc
func FetchAdd(p *atomic.Int64, d int64, emulate bool) int64 {
	if !emulate {
		return p.Add(d) - d
	}
	for {
		old := p.Load()
		if p.CompareAndSwap(old, old+d) {
			return old
		}
	}
}

// And atomically ANDs mask into *p, as the rings' consume() marks a
// slot ⊥c (Index 0: the paper's OR, bits inverted). With emulate set
// it spins on CompareAndSwap instead (§3.3: OR may be emulated with
// CAS), stopping early once the bits mask clears are already clear.
//
//wfq:noalloc
func And(p *atomic.Uint64, mask uint64, emulate bool) {
	if !emulate {
		p.And(mask)
		return
	}
	for {
		old := p.Load()
		if old&^mask == 0 || p.CompareAndSwap(old, old&mask) {
			return
		}
	}
}

// Counter is a 64-bit atomic counter whose Add either uses native F&A
// or a CAS loop depending on the Mode it was created with. The zero
// value is a native-mode counter at 0. The word is held as an
// atomic.Int64 so that Add shares FetchAdd; the conversions to and
// from uint64 are free.
type Counter struct {
	v       atomic.Int64
	emulate bool
	count   bool
	adds    atomic.Int64
}

// Init sets the mode and initial value. Must be called before the
// counter is shared.
func (c *Counter) Init(mode Mode, v uint64) {
	c.emulate = mode.Emulated()
	c.count = mode == CountingFAA
	c.v.Store(int64(v))
}

// Load returns the current value.
//
//wfq:noalloc
func (c *Counter) Load() uint64 { return uint64(c.v.Load()) }

// Store unconditionally writes v.
//
//wfq:noalloc
func (c *Counter) Store(v uint64) { c.v.Store(int64(v)) }

// Add atomically adds delta and returns the PREVIOUS value (see
// FetchAdd).
//
//wfq:noalloc
func (c *Counter) Add(delta uint64) uint64 {
	if c.count {
		c.adds.Add(1)
	}
	return uint64(FetchAdd(&c.v, int64(delta), c.emulate))
}

// Adds returns how many fetch-and-add operations this counter has
// executed. Only CountingFAA counters tally; in every other mode Adds
// reports 0.
//
//wfq:noalloc
func (c *Counter) Adds() int64 { return c.adds.Load() }

// CompareAndSwap is a plain CAS on the counter word.
//
//wfq:noalloc
func (c *Counter) CompareAndSwap(old, new uint64) bool {
	return c.v.CompareAndSwap(int64(old), int64(new))
}
