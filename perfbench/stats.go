package main

import (
	"math"
	"sort"
	"time"
)

// timings is a sample of durations in milliseconds.
type timings []float64

func (t *timings) add(d time.Duration) { *t = append(*t, float64(d)/float64(time.Millisecond)) }

// quantile returns the nearest-rank q-quantile (0 < q <= 1); 0 when empty.
func (t timings) quantile(q float64) float64 {
	if len(t) == 0 {
		return 0
	}
	s := append([]float64(nil), t...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func (t timings) sum() float64 {
	var s float64
	for _, v := range t {
		s += v
	}
	return s
}

// tailQuantile is the highest of the usual reporting percentiles that
// still has at least ten samples beyond it, capped at want: the tail a
// sample of n can honestly support.
func tailQuantile(n int, want float64) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5} {
		if q <= want && float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

// meanQuantile averages the q-quantiles of several samples.
func meanQuantile(ts []timings, q float64) float64 {
	var s float64
	for _, t := range ts {
		s += t.quantile(q)
	}
	return s / float64(len(ts))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
