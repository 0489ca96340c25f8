// lockbench regenerates Figures 2 and 3: the locking micro-benchmark
// runtime sweep from 2 locks (high contention) to 512 locks (low
// contention), normalized to DirectoryCMP at 512 locks.
//
// Usage:
//
//	lockbench -mode persistent   # Figure 2 (persistent-requests-only)
//	lockbench -mode transient    # Figure 3 (transient + persistent)
//	lockbench -mode both
package main

import (
	"flag"
	"fmt"
	"os"

	"tokencmp/internal/experiments"
)

func main() {
	var (
		mode     = flag.String("mode", "both", "persistent (Fig 2), transient (Fig 3), or both")
		acquires = flag.Int("acquires", 32, "acquires per processor")
		seeds    = flag.Int("seeds", 3, "perturbed runs per point")
		jobs     = flag.Int("jobs", 0, "concurrent simulation runs (0 = one per CPU)")
		ctrs     = flag.Bool("counters", false, "print per-protocol event-counter totals")
	)
	faultFlags := experiments.RegisterFaultFlags(flag.CommandLine)
	flag.Parse()
	fig2, fig3, err := figures(*mode, *seeds, *acquires, *jobs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	faults, err := faultFlags()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockbench:", err)
		os.Exit(2)
	}

	opt := experiments.DefaultOptions()
	opt.Acquires = *acquires
	opt.Seeds = *seeds
	opt.Jobs = *jobs
	opt.Faults = faults
	lockCounts := []int{2, 4, 8, 16, 32, 64, 128, 256, 512}

	if fig2 {
		sweep, err := experiments.RunLockSweep(
			[]string{"TokenCMP-arb0", "DirectoryCMP", "DirectoryCMP-zero", "HammerCMP", "TokenCMP-dst0"},
			lockCounts, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sweep.Render(os.Stdout, "Figure 2: Locking micro-benchmark, persistent requests only")
		if *ctrs {
			sweep.RenderCounters(os.Stdout)
		}
		fmt.Println()
	}
	if fig3 {
		sweep, err := experiments.RunLockSweep(
			[]string{"DirectoryCMP", "DirectoryCMP-zero", "HammerCMP", "TokenCMP-dst4", "TokenCMP-dst1", "TokenCMP-dst1-pred"},
			lockCounts, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sweep.Render(os.Stdout, "Figure 3: Locking micro-benchmark, transient + persistent requests")
		if *ctrs {
			sweep.RenderCounters(os.Stdout)
		}
	}
}

// figures reports which of Figures 2 and 3 a -mode value selects, or
// an error for an unknown mode, fewer than one seed, or a negative
// -acquires or -jobs (0 keeps their defaults).
func figures(mode string, seeds, acquires, jobs int) (fig2, fig3 bool, err error) {
	switch {
	case seeds < 1:
		return false, false, fmt.Errorf("lockbench: -seeds must be >= 1")
	case acquires < 0:
		return false, false, fmt.Errorf("lockbench: -acquires must be >= 0, got %d", acquires)
	case jobs < 0:
		return false, false, fmt.Errorf("lockbench: -jobs must be >= 0, got %d", jobs)
	}
	switch mode {
	case "persistent":
		return true, false, nil
	case "transient":
		return false, true, nil
	case "both":
		return true, true, nil
	}
	return false, false, fmt.Errorf("lockbench: unknown -mode %q (want persistent, transient, or both)", mode)
}
