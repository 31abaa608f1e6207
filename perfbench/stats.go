package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs:
// the smallest value with at least q·n values at or below it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// beyond counts the values strictly above the nearest-rank q-quantile,
// the samples that make a tail percentile meaningful.
func beyond(xs []float64, q float64) int {
	p := percentile(xs, q)
	n := 0
	for _, x := range xs {
		if x > p {
			n++
		}
	}
	return n
}

// geomean returns the geometric mean of positive values; NaN if any
// value is not positive or xs is empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var logSum float64
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}
