package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
// Fewer than that and the percentile is the noise of a handful of
// samples, so percentile refuses it.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100, nearest rank) of
// samples, and false when fewer than minBeyond samples lie beyond it.
func percentile(samples []float64, p float64) (float64, bool) {
	n := len(samples)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
	if n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], true
}

// median is the middle of repeated measurements of one quantity (the
// mean of the two middle values for an even count). Unlike percentile it
// accepts any non-empty sample: it summarizes repetitions, not a latency
// distribution.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sumOf(samples []float64) float64 {
	var t float64
	for _, v := range samples {
		t += v
	}
	return t
}

func msOf(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
