package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile for it
// to be supported by the sample.
const minBeyond = 10

// linkMbps is the paper's link model (§6.4): transfer time = size / rate.
const linkMbps = 100

// percentileLadder lists the tail percentiles the benchmark may report, from
// the highest down.
var percentileLadder = []float64{99.9, 99, 98, 95, 90, 75, 50}

// rankIndex returns the zero-based nearest-rank index of percentile p in a
// sorted sample of n values.
func rankIndex(n int, p float64) int {
	// The epsilon keeps p*n/100 from rounding up past an exact rank
	// (99.9% of 10000 is rank 9990, not 9991).
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// beyond reports how many of n sorted samples lie above percentile p.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// tailPercentile returns the highest percentile of the ladder that has at
// least minBeyond samples above it in a sample of n, and false when even the
// median is unsupported.
func tailPercentile(n int) (float64, bool) {
	for _, p := range percentileLadder {
		if beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile p of sorted, or 0 for an
// empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), p)]
}

// sortedCopy returns vals sorted ascending, leaving vals untouched.
func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// median returns the median of vals (mean of the middle pair for an even
// count), or 0 for an empty sample.
func median(vals []float64) float64 {
	s := sortedCopy(vals)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles of vals by the
// "exclusive" method of Python's statistics.quantiles(vals, n=4), the
// estimator the benchmark's steadiness is judged by. It needs at least two
// values.
func quartiles(vals []float64) (q1, q3 float64, ok bool) {
	s := sortedCopy(vals)
	ld := len(s)
	if ld < 2 {
		return 0, 0, false
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3), true
}

// quartileSpread returns the interquartile distance of vals as a share of
// their median: the run-to-run spread a metric's bound must exceed.
func quartileSpread(vals []float64) (float64, bool) {
	q1, q3, ok := quartiles(vals)
	med := median(vals)
	if !ok || med == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(med), true
}

// linkTime is the time bytes take on the paper's 100 Mbps link.
func linkTime(bytes int) time.Duration {
	return time.Duration(float64(bytes) * 8 / (linkMbps * 1e6) * float64(time.Second))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
