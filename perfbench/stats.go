package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs, the mean of the two middle
// values for an even count, and 0 for no values. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile of the ascending
// slice sorted, and how many samples lie beyond it.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p * float64(n) / 100))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n - rank
}

// minBeyond is the number of samples that must lie beyond a reported
// percentile: fewer would make the percentile a property of a handful
// of outliers.
const minBeyond = 10

// tailPercentile returns the highest of the candidate percentiles that
// has at least minBeyond samples beyond it. ok is false when even the
// lowest candidate has too few.
func tailPercentile(sorted []float64, candidates []float64) (p, v float64, ok bool) {
	c := sortedCopy(candidates)
	for i := len(c) - 1; i >= 0; i-- {
		if val, beyond := percentile(sorted, c[i]); beyond >= minBeyond {
			return c[i], val, true
		}
	}
	return 0, 0, false
}
