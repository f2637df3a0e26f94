// Log-bucketed, HDR-style latency histogram.
//
// Values (nanoseconds by convention, though the histogram is
// unit-agnostic) are binned into 8 sub-buckets per power of two:
// bucket width scales with magnitude, so the relative quantile error
// is bounded by 1/16 (half a sub-bucket) across the full uint64 range
// while the whole table stays under 4 KiB. Recording is three atomic
// RMWs on fixed storage — no allocation, no locks — and snapshots are
// plain value types that merge associatively, so per-shard histograms
// can be combined for free exactly like the counter stripes.

package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// histSubBits sets the sub-bucket resolution: 2^histSubBits
	// sub-buckets per octave, bounding relative error at
	// 1 / 2^(histSubBits+1).
	histSubBits = 3
	histSubs    = 1 << histSubBits

	// NumHistBuckets is the total bucket count: histSubs exact
	// buckets for values < histSubs, then histSubs sub-buckets for
	// each of the 64-histSubBits remaining octaves.
	NumHistBuckets = histSubs + (64-histSubBits)*histSubs
)

// Histogram is a concurrent log-bucketed histogram. The zero value is
// ready to use; a nil *Histogram no-ops on Record like a nil *Sink.
// All storage is fixed at declaration, so recording never allocates.
type Histogram struct {
	buckets [NumHistBuckets]atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
}

// NewHistogram returns an empty enabled histogram.
func NewHistogram() *Histogram { return new(Histogram) }

// histBucket maps a value to its bucket index.
//
//wfq:noalloc
func histBucket(v uint64) int {
	if v < histSubs {
		return int(v)
	}
	e := bits.Len64(v) - 1 // position of the MSB; >= histSubBits here
	sub := (v >> (uint(e) - histSubBits)) & (histSubs - 1)
	return histSubs + (e-histSubBits)*histSubs + int(sub)
}

// histBounds returns the inclusive lower bound and width of a bucket.
func histBounds(idx int) (lo, width uint64) {
	if idx < histSubs {
		return uint64(idx), 1
	}
	octave := uint(idx-histSubs) / histSubs
	sub := uint64(idx-histSubs) % histSubs
	return (histSubs + sub) << octave, 1 << octave
}

// Record adds one observation. Safe for concurrent use; no-op on a nil
// receiver.
//
//wfq:noalloc
func (h *Histogram) Record(v uint64) {
	if h == nil {
		return
	}
	h.buckets[histBucket(v)].Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// RecordElapsed records a duration, clamping negatives to zero. This
// is the open-loop (coordinated-omission-safe) recording primitive:
// callers pass completion-time minus INTENDED start time, which the
// schedule fixes before the operation runs, so an operation delayed
// behind a backlog is charged its whole queueing delay instead of
// restarting the clock when it finally gets service. The clamp only
// matters for an operation completing ahead of a skewed schedule
// stamp; real queueing delay is always nonnegative. No-op on a nil
// receiver.
//
//wfq:noalloc
func (h *Histogram) RecordElapsed(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.Record(uint64(d))
}

// Snapshot copies the current state. Not an atomic cut: observations
// racing with the snapshot may be partially included, which is
// harmless for monitoring. A nil Histogram yields the zero snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// HistogramSnapshot is an immutable copy of a Histogram. Snapshots
// merge associatively and commutatively: bucket counts and sums add,
// maxima take the max, so any grouping of partial merges yields the
// same result.
type HistogramSnapshot struct {
	// Buckets holds per-bucket observation counts.
	Buckets [NumHistBuckets]uint64
	// Count is the total number of observations.
	Count uint64
	// Sum is the sum of all observed values.
	Sum uint64
	// Max is the largest observed value (exact, not bucketed).
	Max uint64
}

// Merge accumulates o into s.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Mean returns the arithmetic mean of the observations (exact, from
// the running sum), or 0 if the histogram is empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns the q-quantile (0 <= q <= 1) by nearest rank,
// represented as the midpoint of the bucket holding that rank; the
// relative error is bounded by 1/16. q >= 1 returns the exact Max;
// an empty snapshot returns 0. Representatives are clamped to Max so
// upper quantiles never exceed the largest real observation.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q >= 1 {
		return s.Max
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum > rank {
			lo, width := histBounds(i)
			rep := lo + width/2
			if rep > s.Max {
				rep = s.Max
			}
			return rep
		}
	}
	return s.Max
}
