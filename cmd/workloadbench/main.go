// workloadbench regenerates Figure 6 (commercial workload runtime) and
// Figures 7a/7b (inter- and intra-CMP traffic by message class) for the
// OLTP, Apache, and SPECjbb surrogates.
//
// Usage:
//
//	workloadbench -what runtime   # Figure 6
//	workloadbench -what inter     # Figure 7a
//	workloadbench -what intra     # Figure 7b
//	workloadbench -what all
package main

import (
	"flag"
	"fmt"
	"os"

	"tokencmp/internal/experiments"
	"tokencmp/internal/prof"
	"tokencmp/internal/stats"
)

func main() {
	var (
		what  = flag.String("what", "all", "runtime (Fig 6), inter (Fig 7a), intra (Fig 7b), or all")
		txns  = flag.Int("txns", 30, "transactions per processor")
		seeds = flag.Int("seeds", 3, "perturbed runs per configuration")
		jobs  = flag.Int("jobs", 0, "concurrent simulation runs (0 = one per CPU)")
		ctrs  = flag.Bool("counters", false, "print per-protocol event-counter totals")

		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	faultFlags := experiments.RegisterFaultFlags(flag.CommandLine)
	flag.Parse()
	fig6, fig7a, fig7b, err := figures(*what, *seeds, *txns, *jobs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	faults, err := faultFlags()
	if err != nil {
		fmt.Fprintln(os.Stderr, "workloadbench:", err)
		os.Exit(2)
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	opt := experiments.DefaultOptions()
	opt.TxnsPerProc = *txns
	opt.Seeds = *seeds
	opt.Jobs = *jobs
	opt.Faults = faults

	protos := []string{
		"DirectoryCMP", "DirectoryCMP-zero", "HammerCMP",
		"TokenCMP-dst4", "TokenCMP-dst1", "TokenCMP-dst1-pred", "TokenCMP-dst1-filt",
		"PerfectL2",
	}
	res, err := experiments.RunCommercial([]string{"OLTP", "Apache", "SPECjbb"}, protos, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		stopProf() // flush a usable CPU profile even on failure
		os.Exit(1)
	}
	if fig6 {
		res.RenderRuntime(os.Stdout)
		fmt.Println()
		fmt.Println("Persistent requests as a share of L1 misses (paper: < 0.3%):")
		for _, wl := range res.Workloads {
			fmt.Printf("  %-8s TokenCMP-dst1: %.3f%%\n", wl, 100*res.PersistentFraction(wl, "TokenCMP-dst1"))
		}
		fmt.Println()
	}
	if fig7a {
		res.RenderTraffic(os.Stdout, stats.InterCMP)
		fmt.Println()
	}
	if fig7b {
		res.RenderTraffic(os.Stdout, stats.IntraCMP)
	}
	if *ctrs {
		res.RenderCounters(os.Stdout)
	}
}

// figures reports which of Figures 6, 7a and 7b a -what value selects,
// or an error for an unknown value, fewer than one seed, or a negative
// -txns or -jobs (0 keeps their defaults).
func figures(what string, seeds, txns, jobs int) (fig6, fig7a, fig7b bool, err error) {
	switch {
	case seeds < 1:
		return false, false, false, fmt.Errorf("workloadbench: -seeds must be >= 1")
	case txns < 0:
		return false, false, false, fmt.Errorf("workloadbench: -txns must be >= 0, got %d", txns)
	case jobs < 0:
		return false, false, false, fmt.Errorf("workloadbench: -jobs must be >= 0, got %d", jobs)
	}
	switch what {
	case "runtime":
		return true, false, false, nil
	case "inter":
		return false, true, false, nil
	case "intra":
		return false, false, true, nil
	case "all":
		return true, true, true, nil
	}
	return false, false, false, fmt.Errorf("workloadbench: unknown -what %q (want runtime, inter, intra, or all)", what)
}
