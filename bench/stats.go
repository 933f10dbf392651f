package main

import (
	"math"
	"slices"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count).  It reports 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the q-quantile (0 < q <= 1) of an ascending slice by
// the nearest-rank rule: the smallest value with at least q of the sample
// at or below it.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// us converts nanoseconds to microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }
