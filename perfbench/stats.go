package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is noise, so the percentile steps down
// until it is supported.
const minBeyond = 10

// tailRank returns the nearest-rank index k into an ascending sample of n
// for the quantile want, lowered until at least minBeyond samples lie
// beyond it, and the quantile that index actually reports. ok is false
// when even the median of n samples is unsupported.
func tailRank(n int, want float64) (k int, q float64, ok bool) {
	if n < minBeyond+1 {
		return 0, 0, false
	}
	k = int(math.Ceil(want*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if n-1-k < minBeyond {
		k = n - 1 - minBeyond
	}
	return k, float64(k+1) / float64(n), true
}

// percentile sorts xs in place and returns its supported want-quantile
// (see tailRank) with the quantile it reports.
func percentile(xs []float64, want float64) (v, q float64, ok bool) {
	sort.Float64s(xs)
	k, q, ok := tailRank(len(xs), want)
	if !ok {
		return 0, 0, false
	}
	return xs[k], q, true
}

// median returns the middle of xs (mean of the two middles for even
// lengths) without reordering the caller's slice. NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantile returns the nearest-rank q-quantile of xs without reordering
// the caller's slice. NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// ratio is a/b, or 0 when nothing was measured against.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
