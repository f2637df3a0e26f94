package metrics

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// refQuantile is the nearest-rank quantile on an exact sorted sample,
// using the same rank convention as HistogramSnapshot.Quantile.
func refQuantile(sorted []uint64, q float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := int(q * float64(len(sorted)))
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// TestHistogramQuantileAccuracy checks the bucketed quantiles against
// an exact sorted reference over a log-uniform sample spanning ns to
// seconds. The representative is a bucket midpoint, so the relative
// error must stay within half a sub-bucket: 1/16.
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := NewHistogram()
	const n = 20000
	vals := make([]uint64, n)
	for i := range vals {
		// Log-uniform over roughly [1, 2^30]: pick an exponent, then
		// a uniform mantissa within that octave.
		e := uint(rng.Intn(30))
		v := (uint64(1) << e) + uint64(rng.Int63n(1<<e))
		vals[i] = v
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	s := h.Snapshot()
	if s.Count != n {
		t.Fatalf("Count = %d, want %d", s.Count, n)
	}
	if s.Max != vals[n-1] {
		t.Fatalf("Max = %d, want %d", s.Max, vals[n-1])
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		got := s.Quantile(q)
		want := refQuantile(vals, q)
		rel := relErr(got, want)
		if rel > 1.0/16+1e-9 {
			t.Errorf("Quantile(%v) = %d, reference %d, rel err %.4f > 1/16", q, got, want, rel)
		}
	}
}

func relErr(got, want uint64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return float64(got)
	}
	d := float64(got) - float64(want)
	if d < 0 {
		d = -d
	}
	return d / float64(want)
}

// TestHistogramSmallValuesExact: values below the first octave get
// unit-width buckets, so their quantiles are exact.
func TestHistogramSmallValuesExact(t *testing.T) {
	h := NewHistogram()
	for v := uint64(0); v < histSubs; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	for v := uint64(0); v < histSubs; v++ {
		q := (float64(v) + 0.5) / float64(histSubs)
		if got := s.Quantile(q); got != v {
			t.Errorf("Quantile(%v) = %d, want exact %d", q, got, v)
		}
	}
	if got := s.Quantile(1); got != histSubs-1 {
		t.Errorf("Quantile(1) = %d, want %d", got, histSubs-1)
	}
}

// TestHistogramBucketRoundTrip: every bucket's bounds must map back to
// the same bucket at both edges, and buckets must tile the range with
// no gaps or overlaps.
func TestHistogramBucketRoundTrip(t *testing.T) {
	var nextLo uint64
	for i := 0; i < NumHistBuckets; i++ {
		lo, width := histBounds(i)
		if lo != nextLo {
			t.Fatalf("bucket %d: lo = %d, want contiguous %d", i, lo, nextLo)
		}
		if histBucket(lo) != i {
			t.Fatalf("bucket %d: histBucket(lo=%d) = %d", i, lo, histBucket(lo))
		}
		hi := lo + width - 1
		if hi >= lo && histBucket(hi) != i { // hi<lo only on final-bucket overflow
			t.Fatalf("bucket %d: histBucket(hi=%d) = %d", i, hi, histBucket(hi))
		}
		nextLo = lo + width
		if nextLo == 0 {
			// Wrapped past 1<<64-1: must be the last bucket.
			if i != NumHistBuckets-1 {
				t.Fatalf("bucket %d wrapped before the last bucket", i)
			}
		}
	}
	if histBucket(^uint64(0)) != NumHistBuckets-1 {
		t.Fatalf("histBucket(max uint64) = %d, want %d", histBucket(^uint64(0)), NumHistBuckets-1)
	}
}

// TestHistogramMergeAssociative: merging snapshots is exact integer
// arithmetic, so any grouping must yield identical results.
func TestHistogramMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mk := func() HistogramSnapshot {
		h := NewHistogram()
		for i := 0; i < 1000; i++ {
			h.Record(uint64(rng.Int63n(1 << 40)))
		}
		return h.Snapshot()
	}
	a, b, c := mk(), mk(), mk()

	left := a // (a+b)+c
	left.Merge(b)
	left.Merge(c)

	bc := b // a+(b+c)
	bc.Merge(c)
	right := a
	right.Merge(bc)

	if left != right {
		t.Fatal("Merge is not associative")
	}

	ba := b // commutativity: b+a == a+b
	ba.Merge(a)
	ab := a
	ab.Merge(b)
	if ab != ba {
		t.Fatal("Merge is not commutative")
	}
}

// TestHistogramConcurrentRecord hammers one histogram from many
// goroutines; with exact totals the only nondeterminism the race
// detector can flag is a real bug.
func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	const workers = 8
	const per = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(uint64(rng.Int63n(1 << 32)))
			}
		}(int64(w))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("Count = %d, want %d", s.Count, workers*per)
	}
	var bucketSum uint64
	for _, n := range s.Buckets {
		bucketSum += n
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != Count %d", bucketSum, s.Count)
	}
}

// TestHistogramNilAndEmpty: nil histograms and empty snapshots are
// inert, matching the nil-Sink disabled mode.
func TestHistogramNilAndEmpty(t *testing.T) {
	var h *Histogram
	h.Record(42) // must not panic
	h.RecordElapsed(time.Second)
	s := h.Snapshot()
	if s.Count != 0 || s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatalf("nil histogram snapshot not empty: %+v", s)
	}
}

// quantileLadder is the fixed percentile set the open-loop harness and
// every exporter report, in ascending order.
var quantileLadder = []float64{0.5, 0.9, 0.99, 0.999, 1}

// checkMonotone asserts p50 <= p90 <= p99 <= p99.9 <= max on a
// snapshot — the invariant every latency report leans on.
func checkMonotone(t *testing.T, label string, s HistogramSnapshot) {
	t.Helper()
	prev := uint64(0)
	for _, q := range quantileLadder {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("%s: Quantile(%v) = %d < previous %d (quantiles not monotone)", label, q, v, prev)
		}
		prev = v
	}
	if s.Count > 0 && prev != s.Max {
		t.Fatalf("%s: Quantile(1) = %d != Max %d", label, prev, s.Max)
	}
}

// TestHistogramQuantileMonotoneAdversarial drives the quantile ladder
// over the distributions most likely to break a bucketed nearest-rank
// implementation: bimodal with the mass split across distant octaves
// (the open-loop saturation shape — a fast mode and a stalled tail),
// a single sample, every sample identical at a bucket edge, and a
// uint64-max spike.
func TestHistogramQuantileMonotoneAdversarial(t *testing.T) {
	cases := map[string]func(h *Histogram){
		"bimodal": func(h *Histogram) {
			for i := 0; i < 9000; i++ {
				h.Record(1_000) // fast mode: ~1µs
			}
			for i := 0; i < 1000; i++ {
				h.Record(500_000_000) // stalled tail: 500ms
			}
		},
		"single-sample": func(h *Histogram) { h.Record(12345) },
		"single-zero":   func(h *Histogram) { h.Record(0) },
		"all-max": func(h *Histogram) {
			for i := 0; i < 100; i++ {
				h.Record(^uint64(0))
			}
		},
		"all-identical-bucket-edge": func(h *Histogram) {
			for i := 0; i < 1000; i++ {
				h.Record(1 << 20)
			}
		},
		"max-plus-noise": func(h *Histogram) {
			h.Record(^uint64(0))
			for i := 0; i < 1000; i++ {
				h.Record(uint64(i))
			}
		},
	}
	for name, fill := range cases {
		h := NewHistogram()
		fill(h)
		s := h.Snapshot()
		checkMonotone(t, name, s)
		// Upper quantiles are clamped to Max, never past it.
		if s.Quantile(0.999) > s.Max {
			t.Fatalf("%s: p99.9 %d exceeds Max %d", name, s.Quantile(0.999), s.Max)
		}
	}
	// Degenerate shapes with exact expectations.
	h := NewHistogram()
	h.Record(12345)
	if got := h.Snapshot().Quantile(0.5); got != 12345 {
		t.Fatalf("single sample: p50 = %d, want the sample itself (clamped to Max)", got)
	}
	h = NewHistogram()
	for i := 0; i < 100; i++ {
		h.Record(^uint64(0))
	}
	// Mid-ladder quantiles report the bucket midpoint, so they sit
	// below Max but within the documented 1/16 relative error; q >= 1
	// short-circuits to the exact Max.
	max := ^uint64(0)
	for _, q := range quantileLadder {
		got := h.Snapshot().Quantile(q)
		if got > max {
			t.Fatalf("all-max: Quantile(%v) = %d exceeds Max", q, got)
		}
		if rel := (float64(max) - float64(got)) / float64(max); rel > 1.0/16 {
			t.Fatalf("all-max: Quantile(%v) = %d, relative error %f > 1/16", q, got, rel)
		}
	}
	if got := h.Snapshot().Quantile(1); got != max {
		t.Fatalf("all-max: Quantile(1) = %d, want exact Max", got)
	}
}

// TestHistogramMergeThenQuantileEqualsRecordThenQuantile: recording a
// stream into one histogram and recording its shards into separate
// histograms merged afterwards must agree — exactly on bucket counts,
// and within the documented 1/16 relative error on every quantile
// (exact here, since identical buckets yield identical representatives;
// the bound is asserted anyway to pin the documented contract). This
// is the property the open-loop harness and the daemon lean on when
// they merge per-consumer histograms at scrape time.
func TestHistogramMergeThenQuantileEqualsRecordThenQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	whole := NewHistogram()
	const shards = 5
	parts := make([]*Histogram, shards)
	for i := range parts {
		parts[i] = NewHistogram()
	}
	for i := 0; i < 50000; i++ {
		// The open-loop recording shape: mostly a tight service-time
		// mode, a heavy tail when the schedule falls behind.
		v := uint64(rng.Int63n(4_000)) + 500
		if rng.Intn(100) == 0 {
			v = uint64(rng.Int63n(1_000_000_000))
		}
		whole.Record(v)
		parts[rng.Intn(shards)].Record(v)
	}
	var merged HistogramSnapshot
	for _, p := range parts {
		merged.Merge(p.Snapshot())
	}
	direct := whole.Snapshot()
	if merged != direct {
		t.Fatal("merge-then-snapshot differs from record-then-snapshot on identical input")
	}
	for _, q := range quantileLadder {
		if rel := relErr(merged.Quantile(q), direct.Quantile(q)); rel > 1.0/16+1e-9 {
			t.Fatalf("Quantile(%v): merged %d vs direct %d, rel err %f", q, merged.Quantile(q), direct.Quantile(q), rel)
		}
	}
	checkMonotone(t, "merged", merged)
}

// TestHistogramRecordHelpers pins RecordElapsed: elapsed durations
// land in a plausible bucket, and negative elapsed (a completion ahead
// of its intended schedule stamp) clamps to zero instead of wrapping
// to a huge unsigned value — the wraparound would silently blow up
// every upper quantile.
func TestHistogramRecordHelpers(t *testing.T) {
	h := NewHistogram()
	h.RecordElapsed(-time.Second)
	if s := h.Snapshot(); s.Count != 1 || s.Max != 0 {
		t.Fatalf("negative elapsed must clamp to 0: %+v count=%d max=%d", s, s.Count, s.Max)
	}
	h = NewHistogram()
	h.RecordElapsed(1500 * time.Nanosecond)
	if s := h.Snapshot(); s.Count != 1 || s.Max != 1500 {
		t.Fatalf("RecordElapsed(1.5µs): count=%d max=%d, want 1/1500", s.Count, s.Max)
	}
}
