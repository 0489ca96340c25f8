package experiments

import (
	"flag"
	"fmt"
	"math"

	"tokencmp/internal/network"
	"tokencmp/internal/sim"
)

// MaxNS is the largest nanosecond count sim.NS converts without
// overflowing picosecond sim.Time: the bound on every jitter flag.
const MaxNS = math.MaxInt64 / int64(sim.Nanosecond)

// RegisterFaultFlags installs the shared fault-injection flags
// (-drop/-dup/-reorder/-jitter/-faultseed) on fs and returns a resolver
// to call after parsing. mcsim and figures expose the same knobs, and the
// one plan they form governs on-chip and off-chip links alike; zero
// values leave the network perfectly reliable and the run
// byte-identical to a fault-free build. The resolver rejects a plan no
// run can use: -drop must lie in [0, 1), because a retransmitted token
// carrier dropped with certainty is resent forever; -dup and -reorder
// in [0, 1]; -jitter must not be negative nor overflow sim.Time.
func RegisterFaultFlags(fs *flag.FlagSet) func() (network.FaultConfig, error) {
	var (
		drop    = fs.Float64("drop", 0, "fault injection: per-message drop probability for droppable classes, in [0, 1)")
		dup     = fs.Float64("dup", 0, "fault injection: per-message duplication probability, in [0, 1]")
		reorder = fs.Float64("reorder", 0, "fault injection: probability a droppable message is reordered, in [0, 1]")
		jitter  = fs.Int64("jitter", 0, "fault injection: per-message latency jitter bound in ns (all classes)")
		seed    = fs.Int64("faultseed", 1, "fault injection: PRNG seed (same seed + knobs = identical run)")
	)
	return func() (network.FaultConfig, error) {
		// The comparisons are written so that NaN fails each of them.
		switch {
		case !(*drop >= 0 && *drop < 1):
			return network.FaultConfig{}, fmt.Errorf("-drop must be in [0, 1), got %v", *drop)
		case !(*dup >= 0 && *dup <= 1):
			return network.FaultConfig{}, fmt.Errorf("-dup must be in [0, 1], got %v", *dup)
		case !(*reorder >= 0 && *reorder <= 1):
			return network.FaultConfig{}, fmt.Errorf("-reorder must be in [0, 1], got %v", *reorder)
		case *jitter < 0 || *jitter > MaxNS:
			return network.FaultConfig{}, fmt.Errorf("-jitter must be in [0, %d] ns, got %d", MaxNS, *jitter)
		}
		return network.FaultConfig{Seed: *seed, Drop: *drop, Dup: *dup, Reorder: *reorder, Jitter: sim.NS(*jitter)}, nil
	}
}
