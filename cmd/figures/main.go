// figures regenerates the paper's evaluation: the Figure 2/3 locking
// sweeps (2 to 512 locks, normalized to DirectoryCMP at 512 locks), the
// Table 4 barrier study under fixed and jittered work, the Figure 6
// commercial-workload runtimes, and the Figure 7a/7b inter- and
// intra-CMP traffic by message class for the OLTP, Apache and SPECjbb
// surrogates.
//
// Usage:
//
//	figures                                  # every figure and table
//	figures -fig 2,3                         # the locking sweeps
//	figures -fig 6,7a,7b -txns 10 -seeds 2   # one commercial run, three figures
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"tokencmp/internal/experiments"
	"tokencmp/internal/prof"
)

// parse returns the figure ids -fig selects ("all" selects every
// figure), or an error for an unknown or empty id or a negative -jobs.
// Every other flag sets a field of the runs' experiments.Spec, which
// Spec.Validate checks before anything runs.
func parse(fig string, jobs int) ([]string, error) {
	if jobs < 0 {
		return nil, fmt.Errorf("figures: -jobs must be >= 0, got %d", jobs)
	}
	ids := experiments.FigureIDs()
	if fig != "all" {
		ids = strings.Split(fig, ",")
	}
	if _, err := experiments.SelectFigures(ids); err != nil {
		return nil, fmt.Errorf("figures: -fig: %w", err)
	}
	return ids, nil
}

func main() {
	d := experiments.DefaultOptions()
	var (
		fig      = flag.String("fig", "all", "comma-separated figures to run ("+strings.Join(experiments.FigureIDs(), ",")+"), or all")
		acquires = flag.Int("acquires", d.Acquires, "Figures 2/3: acquires per processor")
		barriers = flag.Int("barriers", d.Barriers, "Table 4: barrier rounds")
		txns     = flag.Int("txns", d.TxnsPerProc, "Figures 6/7: transactions per processor")
		seeds    = flag.Int("seeds", d.Seeds, "perturbed runs per configuration")
		jobs     = flag.Int("jobs", d.Jobs, "concurrent simulation runs (0 = one per CPU)")
		ctrs     = flag.Bool("counters", false, "print per-protocol event-counter totals")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	faultFlags := experiments.RegisterFaultFlags(flag.CommandLine)
	flag.Parse()
	ids, err := parse(*fig, *jobs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	opt := d
	opt.Acquires, opt.Barriers, opt.TxnsPerProc = *acquires, *barriers, *txns
	opt.Seeds, opt.Jobs, opt.Faults = *seeds, *jobs, faultFlags()
	if err := experiments.RunFigures(os.Stdout, ids, opt, *ctrs); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		stopProf() // flush a usable CPU profile even on failure
		if errors.Is(err, experiments.ErrInvalidSpec) {
			os.Exit(2) // Spec.Validate refused the runs
		}
		os.Exit(1)
	}
}
