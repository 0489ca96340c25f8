package token

import "tokencmp/internal/sim"

// TimeoutEstimator sets the transient-request timeout threshold.
//
// TokenB averaged the latency of all responses, but in an M-CMP fast
// on-chip hits dominate the average and trigger rapid retry bursts; the
// TokenCMP variants instead set their threshold using responses from
// memory only (Section 4). The estimator keeps an exponentially weighted
// moving average of observed memory-response latencies and reports a
// multiple of it as the timeout.
type TimeoutEstimator struct {
	// Initial is used before any observation.
	Initial sim.Time
	// Multiplier scales the average into a threshold (default 2).
	Multiplier int
	// Floor bounds the threshold from below.
	Floor sim.Time

	avg sim.Time
	n   int
}

// NewTimeoutEstimator returns an estimator with the given initial guess.
func NewTimeoutEstimator(initial sim.Time) *TimeoutEstimator {
	return &TimeoutEstimator{Initial: initial, Multiplier: 2, Floor: sim.NS(100)}
}

// Observe records a memory-response latency.
func (t *TimeoutEstimator) Observe(lat sim.Time) {
	if t.n == 0 {
		t.avg = lat
	} else {
		// EWMA with weight 1/4 on the new sample.
		t.avg = (3*t.avg + lat) / 4
	}
	t.n++
}

// Timeout reports the current retry threshold.
func (t *TimeoutEstimator) Timeout() sim.Time {
	base := t.Initial
	if t.n > 0 {
		base = t.avg
	}
	th := base * sim.Time(t.Multiplier)
	if th < t.Floor {
		th = t.Floor
	}
	return th
}
