// barrierbench regenerates Table 4: barrier micro-benchmark runtimes
// under fixed (3000 ns) and jittered (3000 ± U(1000) ns) work, for every
// protocol, normalized to DirectoryCMP.
package main

import (
	"flag"
	"fmt"
	"os"

	"tokencmp/internal/experiments"
)

func main() {
	var (
		barriers = flag.Int("barriers", 20, "barrier rounds")
		seeds    = flag.Int("seeds", 3, "perturbed runs per configuration")
		jobs     = flag.Int("jobs", 0, "concurrent simulation runs (0 = one per CPU)")
		ctrs     = flag.Bool("counters", false, "print per-protocol event-counter totals")
	)
	faultFlags := experiments.RegisterFaultFlags(flag.CommandLine)
	flag.Parse()
	if err := validate(*seeds, *barriers, *jobs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	faults, err := faultFlags()
	if err != nil {
		fmt.Fprintln(os.Stderr, "barrierbench:", err)
		os.Exit(2)
	}

	opt := experiments.DefaultOptions()
	opt.Barriers = *barriers
	opt.Seeds = *seeds
	opt.Jobs = *jobs
	opt.Faults = faults

	protos := []string{
		"TokenCMP-arb0", "TokenCMP-dst0",
		"DirectoryCMP", "DirectoryCMP-zero", "HammerCMP",
		"TokenCMP-dst4", "TokenCMP-dst1", "TokenCMP-dst1-pred", "TokenCMP-dst1-filt",
	}
	table, err := experiments.RunBarrierTable(protos, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	table.Render(os.Stdout)
	if *ctrs {
		table.RenderCounters(os.Stdout)
	}
}

// validate rejects flag values that cannot produce a table: fewer than
// one seed, or a negative -barriers or -jobs (0 keeps their defaults).
func validate(seeds, barriers, jobs int) error {
	switch {
	case seeds < 1:
		return fmt.Errorf("barrierbench: -seeds must be >= 1")
	case barriers < 0:
		return fmt.Errorf("barrierbench: -barriers must be >= 0, got %d", barriers)
	case jobs < 0:
		return fmt.Errorf("barrierbench: -jobs must be >= 0, got %d", jobs)
	}
	return nil
}
