package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the tail-percentile rule: a percentile is reported only when
// at least this many samples lie above it, so one outlier cannot set it.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples,
// refusing when fewer than minBeyond samples lie beyond it.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", 100*p)
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("percentile p%g of %d samples leaves %d beyond it, need %d",
			100*p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle of samples (mean of the two middle values for
// an even count); it is used for repeated set-up timings, not for tails.
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
