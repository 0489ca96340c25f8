// Package stats accumulates the measurements the paper reports: runtimes
// with pseudo-random perturbation and 95% confidence intervals
// (Alameldeen & Wood methodology, Section 6) and interconnect traffic
// broken down by message class and by network level (Figure 7).
package stats

import "fmt"

// TrafficClass is the Figure 7 message-type breakdown. A message's class
// is not carried on the message: each protocol's kind table names the
// class of every message kind (see network.Kinds).
type TrafficClass uint8

// Traffic classes, in the paper's legend order.
const (
	ResponseData TrafficClass = iota
	WritebackData
	WritebackControl
	Request
	InvFwdAckTokens
	Unblock
	Persistent
	NumTrafficClasses
)

var trafficClassNames = [NumTrafficClasses]string{
	"ResponseData",
	"WritebackData",
	"WritebackControl",
	"Request",
	"Inv/Fwd/Acks/Tokens",
	"Unblock",
	"Persistent",
}

func (c TrafficClass) String() string {
	if c >= NumTrafficClasses {
		return fmt.Sprintf("TrafficClass(%d)", int(c))
	}
	return trafficClassNames[c]
}

// Level distinguishes the two interconnect levels of the M-CMP system.
type Level int

// Network levels.
const (
	IntraCMP Level = iota // on-chip
	InterCMP              // between chips
	NumLevels
)

func (l Level) String() string {
	if l == IntraCMP {
		return "intra-CMP"
	}
	return "inter-CMP"
}

// Traffic counts bytes and messages per (level, class).
type Traffic struct {
	Bytes    [NumLevels][NumTrafficClasses]uint64
	Messages [NumLevels][NumTrafficClasses]uint64
}

// Add records one message of size bytes.
func (t *Traffic) Add(level Level, class TrafficClass, size int) {
	t.Bytes[level][class] += uint64(size)
	t.Messages[level][class]++
}

// TotalBytes sums bytes at a level across all classes.
func (t *Traffic) TotalBytes(level Level) uint64 {
	var sum uint64
	for c := TrafficClass(0); c < NumTrafficClasses; c++ {
		sum += t.Bytes[level][c]
	}
	return sum
}

// TotalMessages sums message counts at a level.
func (t *Traffic) TotalMessages(level Level) uint64 {
	var sum uint64
	for c := TrafficClass(0); c < NumTrafficClasses; c++ {
		sum += t.Messages[level][c]
	}
	return sum
}

// Merge adds other's counts into t.
func (t *Traffic) Merge(other *Traffic) {
	for l := Level(0); l < NumLevels; l++ {
		for c := TrafficClass(0); c < NumTrafficClasses; c++ {
			t.Bytes[l][c] += other.Bytes[l][c]
			t.Messages[l][c] += other.Messages[l][c]
		}
	}
}
