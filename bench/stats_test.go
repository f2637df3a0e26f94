package main

import (
	"math/rand/v2"
	"slices"
	"testing"
)

func TestSummarizeMatchesPythonStatistics(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(values, n=4).
	for _, c := range []struct {
		values         []float64
		median, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{5, 1}, 3, 0, 6},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{2.5, 0.1, 9, 4, 4, 7, 1.5}, 4, 1.5, 7},
		{[]float64{42}, 42, 42, 42},
	} {
		s := summarize(c.values)
		if s.Median != c.median || s.Q1 != c.q1 || s.Q3 != c.q3 || s.N != len(c.values) {
			t.Errorf("summarize(%v) = %+v, want median %g q1 %g q3 %g n %d", c.values, s, c.median, c.q1, c.q3, len(c.values))
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want the zero summary", s)
	}
}

func TestNearestRankMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 2, 3, 10, 99, 1000, 1001} {
		data := make([]int64, n)
		for i := range data {
			data[i] = rng.Int64N(50) // ties included
		}
		slices.Sort(data)
		for _, q := range []float64{0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			// Reference: the smallest sample with at least q*n samples
			// at or below it.
			want := data[n-1]
			for _, x := range data {
				atOrBelow := 0
				for _, y := range data {
					if y <= x {
						atOrBelow++
					}
				}
				if float64(atOrBelow) >= q*float64(n) {
					want = x
					break
				}
			}
			if got := nearestRank(data, q); got != want {
				t.Errorf("nearestRank(n=%d, q=%g) = %d, want %d", n, q, got, want)
			}
		}
	}
	if got := nearestRank(nil, 0.5); got != 0 {
		t.Errorf("nearestRank(nil) = %d, want 0", got)
	}
}
