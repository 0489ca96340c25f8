package stats

import (
	"fmt"
	"math"
)

// Sample accumulates scalar observations (e.g. runtimes from perturbed
// runs) and reports mean and 95% confidence half-interval. It streams:
// Welford's algorithm keeps the running mean and the sum of squared
// deviations, so a sample costs three float64 words regardless of how
// many observations it has seen — nothing retains the observations.
// (The running sum is kept alongside so Mean stays bit-identical to
// the retained-slice implementation it replaced.)
type Sample struct {
	n    int
	sum  float64
	mean float64 // Welford running mean
	m2   float64 // sum of squared deviations from the running mean
}

// Add folds in an observation.
func (s *Sample) Add(x float64) {
	s.n++
	s.sum += x
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N reports the number of observations.
func (s *Sample) N() int { return s.n }

// Mean reports the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// StdDev reports the sample standard deviation (0 for fewer than two
// observations).
func (s *Sample) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// CI95 reports the 95% confidence half-interval of the mean, using the
// normal approximation with small-sample t multipliers for n <= 30.
func (s *Sample) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return tMultiplier(s.n-1) * s.StdDev() / math.Sqrt(float64(s.n))
}

// tMultiplier approximates the two-sided 95% Student-t critical value for
// the given degrees of freedom.
func tMultiplier(df int) float64 {
	table := map[int]float64{
		1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
		6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
		15: 2.131, 20: 2.086, 25: 2.060, 30: 2.042,
	}
	if v, ok := table[df]; ok {
		return v
	}
	switch {
	case df < 15:
		return table[10]
	case df < 20:
		return table[15]
	case df < 25:
		return table[20]
	case df < 30:
		return table[25]
	default:
		return 1.96
	}
}

// String formats the sample as "mean ± ci".
func (s *Sample) String() string {
	return fmt.Sprintf("%.4g ± %.2g", s.Mean(), s.CI95())
}
