package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a percentile
// before the benchmark reports it as a tail: fewer, and the value is one
// or two outliers rather than a property of the distribution.
const minBeyond = 10

// tailLadder lists the percentiles a tail is chosen from, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// percentile returns the nearest-rank p-th percentile of sorted (the
// smallest sample with at least p% of the samples at or below it) and
// how many samples lie strictly beyond that rank.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	// The epsilon keeps p×n/100 that is whole in exact arithmetic (99.9%
	// of 10000) from rounding up a rank in floating point.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// tailPercentile picks the highest ladder percentile with at least
// minBeyond samples beyond it. ok is false when even the median has
// fewer (under 20 samples).
func tailPercentile(sorted []float64) (p, value float64, beyond int, ok bool) {
	for _, p := range tailLadder {
		if v, b := percentile(sorted, p); b >= minBeyond {
			return p, v, b, true
		}
	}
	return 0, math.NaN(), 0, false
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the interpolated middle of xs (NaN when empty). It is used
// for repeated whole-run measurements (setup, compile rounds), where
// the sample count is small and odd by construction.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean is the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sum adds xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
