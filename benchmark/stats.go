package main

import (
	"math"
	"slices"
)

// minTail is the number of samples that must lie above a reported
// percentile: fewer, and the value rests on too few observations.
const minTail = 10

// percentile returns the p-quantile (0 < p < 1) of xs by linear
// interpolation between order statistics, and whether at least minTail
// samples lie above it. xs need not be sorted and is not modified; with
// no samples the value is 0.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	v := s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	above := len(s) - 1 - lo
	return v, above >= minTail
}

// median returns the middle value of xs (0 for none).
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so spreads computed here match that tool. It
// needs at least two values; with one, all three are that value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4 // after clamping, as Python computes it
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}
