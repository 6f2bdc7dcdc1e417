package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest percentile of xs that still has at
// least minBeyond samples above it, the value at that percentile, and ok =
// false when xs has no more than minBeyond samples (no percentile has
// enough support). With n sorted samples the value is the (n-minBeyond)th
// smallest, so exactly minBeyond samples lie beyond it and the percentile
// is 100·(n-minBeyond)/n.
func tailPercentile(xs []float64, minBeyond int) (pct, value float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - minBeyond // 1-based rank of the reported sample
	return 100 * float64(k) / float64(n), s[k-1], true
}
