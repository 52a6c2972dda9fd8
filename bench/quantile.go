package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is the number of samples a percentile must have beyond it
// before the benchmark reports it: a p99 read from fewer than ten slower
// samples is one or two stragglers, not a tail.
const minTail = 10

// quantile returns the nearest-rank q-quantile of sorted: the smallest
// sample s such that at least q·n samples are ≤ s. It refuses (ok is
// false) when fewer than minTail samples lie strictly past that rank.
func quantile(sorted []time.Duration, q float64) (d time.Duration, ok bool) {
	n := len(sorted)
	if n == 0 || !(q > 0 && q < 1) {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based; ≥ 1 since q > 0
	if n-rank < minTail {
		return 0, false
	}
	return sorted[rank-1], true
}

// sortDurations sorts samples in place and returns them.
func sortDurations(s []time.Duration) []time.Duration {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// mustQuantile is quantile for an end-to-end metric, where a refused
// percentile is a mis-sized run and fails it.
func mustQuantile(sorted []time.Duration, q float64, what string) (time.Duration, error) {
	d, ok := quantile(sorted, q)
	if !ok {
		return 0, fmt.Errorf("%s: p%g needs %d samples beyond it, run has %d samples", what, q*100, minTail, len(sorted))
	}
	return d, nil
}

// ms and us render a duration in the metric units.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerQuantileUs is quantile for a per-layer metric: a layer that did not
// run, or ran too rarely for the percentile, reads 0.
func layerQuantileUs(sorted []time.Duration, q float64) float64 {
	d, ok := quantile(sorted, q)
	if !ok {
		return 0
	}
	return us(d)
}

// quartiles returns the first quartile, median and third quartile of
// values exactly as Python's statistics.quantiles(values, n=4) (its
// default "exclusive" method, extrapolation included) and
// statistics.median compute them, so spreads printed here match the ones
// an external checker derives from the same runs.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med = s[ld/2]
	if ld%2 == 0 {
		med = (s[ld/2-1] + s[ld/2]) / 2
	}
	return at(1), med, at(3)
}
