package experiments

import (
	"flag"
	"fmt"

	"tokencmp/internal/network"
	"tokencmp/internal/sim"
)

// RegisterFaultFlags installs the shared fault-injection flags
// (-drop/-dup/-reorder/-jitter/-faultseed) on fs and returns a function
// to call after parsing that reads them into a plan. mcsim and figures
// expose the same knobs, and the one plan they form governs on-chip and
// off-chip links alike; zero values leave the network perfectly
// reliable and the run byte-identical to a fault-free build.
// Spec.Validate rejects a plan no run can use.
func RegisterFaultFlags(fs *flag.FlagSet) func() network.FaultConfig {
	var (
		drop    = fs.Float64("drop", 0, "fault injection: per-message drop probability for droppable classes, in [0, 1)")
		dup     = fs.Float64("dup", 0, "fault injection: per-message duplication probability, in [0, 1]")
		reorder = fs.Float64("reorder", 0, "fault injection: probability a droppable message is reordered, in [0, 1]")
		jitter  = fs.Int64("jitter", 0, fmt.Sprintf("fault injection: per-message latency jitter bound in ns (all classes), in [0, %d]", MaxJitter.Nanoseconds()))
		seed    = fs.Int64("faultseed", 1, "fault injection: PRNG seed (same seed + knobs = identical run)")
	)
	return func() network.FaultConfig {
		return network.FaultConfig{Seed: *seed, Drop: *drop, Dup: *dup, Reorder: *reorder, Jitter: sim.NS(*jitter)}
	}
}
