// Package sim provides a deterministic discrete-event simulation engine.
//
// Components schedule callbacks at future simulated times on a single
// Engine. Events at equal times fire in scheduling order (a monotonically
// increasing sequence number breaks ties), so a run is bit-reproducible
// for a given input, which the experiment harness relies on for the
// pseudo-random perturbation methodology of Alameldeen & Wood.
package sim

import (
	"fmt"
	"math"
)

// Time is simulated time in picoseconds. Picosecond resolution lets the
// engine express both the 0.5 ns processor cycle of the paper's 2 GHz
// cores and the integer-nanosecond structural latencies of Table 3.
type Time int64

// Common units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
)

// NS returns n nanoseconds as a Time. A count past Time's picosecond
// range clamps to the largest that fits instead of wrapping into range.
func NS(n int64) Time { return Time(min(max(n, -maxNS), maxNS)) * Nanosecond }

const maxNS = math.MaxInt64 / int64(Nanosecond)

// Nanoseconds reports t in (possibly fractional, truncated) nanoseconds.
func (t Time) Nanoseconds() int64 { return int64(t / Nanosecond) }

func (t Time) String() string {
	switch {
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}
