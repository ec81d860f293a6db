package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // the median of 19 has only 9 above it
		{20, 50, true},
		{100, 90, true},
		{999, 98, true}, // p99 of 999 leaves 9 above
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < minBeyond {
			t.Errorf("tailPercentile(%d) = p%v leaves %d samples beyond", c.n, got, beyond(c.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 99: 99, 100: 100, 1: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) and
// statistics.median print for the same inputs.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	cases := []struct {
		vals        []float64
		q1, q3, med float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25, 5.5},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25, 5},
		{[]float64{2, 4}, 1.5, 4.5, 3},
		{[]float64{5, 1, 3}, 1, 5, 3},
	}
	for _, c := range cases {
		q1, q3, ok := quartiles(c.vals)
		if !ok || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.vals, q1, q3, ok, c.q1, c.q3)
		}
		spread, ok := quartileSpread(c.vals)
		if want := (c.q3 - c.q1) / c.med; !ok || math.Abs(spread-want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.vals, spread, want)
		}
	}
	if _, ok := quartileSpread([]float64{1}); ok {
		t.Error("one value has no spread")
	}
	if _, ok := quartileSpread([]float64{0, 0, 0}); ok {
		t.Error("a zero median has no relative spread")
	}
}

func TestLinkTimeIs100Mbps(t *testing.T) {
	// 12 500 bytes are 100 000 bits: one millisecond at 100 Mbps.
	if got := linkTime(12500); got != time.Millisecond {
		t.Errorf("linkTime(12500) = %v, want 1ms", got)
	}
	if got := linkTime(0); got != 0 {
		t.Errorf("linkTime(0) = %v", got)
	}
	// A 1.5 ms exchange of 25 000 bytes reads 3.5 ms on the modelled link.
	if got := ms(1500*time.Microsecond + linkTime(25000)); math.Abs(got-3.5) > 1e-9 {
		t.Errorf("modelled latency = %v ms, want 3.5", got)
	}
}
