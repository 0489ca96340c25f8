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
	"flag"
	"fmt"
	"os"
	"strings"

	"tokencmp/internal/experiments"
	"tokencmp/internal/prof"
)

// flagValues are the flags parse checks.
type flagValues struct {
	fig                                   string
	seeds, acquires, barriers, txns, jobs int
}

// parse returns the figure ids -fig selects ("all" selects every
// figure), or an error for an unknown or empty id, fewer than one seed,
// or a negative -acquires, -barriers, -txns or -jobs (0 keeps their
// defaults).
func parse(f flagValues) ([]string, error) {
	for _, b := range []struct {
		name   string
		v, min int
	}{
		{"seeds", f.seeds, 1},
		{"acquires", f.acquires, 0},
		{"barriers", f.barriers, 0},
		{"txns", f.txns, 0},
		{"jobs", f.jobs, 0},
	} {
		if b.v < b.min {
			return nil, fmt.Errorf("figures: -%s must be >= %d, got %d", b.name, b.min, b.v)
		}
	}
	ids := experiments.FigureIDs()
	if f.fig != "all" {
		ids = strings.Split(f.fig, ",")
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
	ids, err := parse(flagValues{fig: *fig, seeds: *seeds, acquires: *acquires, barriers: *barriers, txns: *txns, jobs: *jobs})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	faults, err := faultFlags()
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
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
	opt.Seeds, opt.Jobs, opt.Faults = *seeds, *jobs, faults
	if err := experiments.RunFigures(os.Stdout, ids, opt, *ctrs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		stopProf() // flush a usable CPU profile even on failure
		os.Exit(1)
	}
}
