package main

import (
	"math"
	"slices"
)

// summary is one metric's distribution over a run's reps (or ladder
// chunks): the median, the quartiles and the sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of values; the zero
// summary when there are none.
func summarize(values []float64) summary {
	if len(values) == 0 {
		return summary{}
	}
	s := slices.Clone(values)
	slices.Sort(s)
	q1, q3 := quartiles(s)
	return summary{Median: median(s), Q1: q1, Q3: q3, N: len(s)}
}

// iqrPct is the interquartile range as a percentage of the median.
func (s summary) iqrPct() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median) * 100
}

// median returns the middle of sorted values, or the mean of the two
// middle ones, as Python's statistics.median does.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles returns the first and third quartiles of sorted values by
// the default ("exclusive") method of Python's
// statistics.quantiles(values, n=4), so the spreads printed here are
// the ones a reader recomputes from the per-run values.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n == 1 {
		return sorted[0], sorted[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return q(1), q(3)
}

// nearestRank returns the exact q-quantile of sorted samples by
// nearest rank: the smallest sample with at least q of all samples at
// or below it. It returns 0 for no samples.
func nearestRank(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(k, 1), len(sorted))-1]
}
