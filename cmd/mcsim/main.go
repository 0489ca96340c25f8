// mcsim runs one workload on one protocol of the simulated M-CMP system
// and prints runtime, traffic, and protocol statistics. With -seeds > 1
// it fans the perturbed runs out across a worker pool (-jobs) and
// reports the mean runtime with its 95% confidence interval.
//
// Usage:
//
//	mcsim -proto TokenCMP-dst1 -workload locking -locks 32 -acquires 64
//	mcsim -proto DirectoryCMP -workload OLTP
//	mcsim -proto DirectoryCMP -workload OLTP -seeds 8 -jobs 4
//	mcsim -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"

	"tokencmp/internal/counters"
	"tokencmp/internal/experiments"
	"tokencmp/internal/machine"
	"tokencmp/internal/prof"
	"tokencmp/internal/sim"
	"tokencmp/internal/stats"
	"tokencmp/internal/tokencmp"
	"tokencmp/internal/topo"
)

func main() {
	d := experiments.DefaultSpec()
	var (
		proto    = flag.String("proto", d.Protocol, "protocol (see -list)")
		wl       = flag.String("workload", d.Workload, "locking, barrier, OLTP, Apache, or SPECjbb")
		locks    = flag.Int("locks", d.Locks, "locking: number of locks")
		acquires = flag.Int("acquires", d.Acquires, "locking: acquires per processor")
		barriers = flag.Int("barriers", d.Barriers, "barrier: rounds")
		wjitter  = flag.Int64("workjitter", d.WorkJitter.Nanoseconds(), "barrier: work jitter in ns")
		txns     = flag.Int("txns", d.Txns, "commercial: transactions per processor")
		cmps     = flag.Int("cmps", d.Geom.CMPs, "CMP count")
		procs    = flag.Int("procs", d.Geom.ProcsPerCMP, "processors per CMP")
		banks    = flag.Int("banks", d.Geom.L2Banks, "L2 banks per CMP")
		seed     = flag.Int64("seed", d.Seed, "perturbation seed (first of -seeds)")
		seeds    = flag.Int("seeds", d.Seeds, "perturbed runs (mean ± CI when > 1)")
		jobs     = flag.Int("jobs", 0, "concurrent runs (0 = one per CPU)")
		check    = flag.Bool("check", false, "enable coherence monitors")
		ctrs     = flag.Bool("counters", false, "print the event-counter table")
		list     = flag.Bool("list", false, "list protocols and exit")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget for the whole command (0 = none); on expiry in-flight runs abort within a bounded number of events, a partial-progress report is printed, and the exit status is non-zero")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	faultFlags := experiments.RegisterFaultFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		fmt.Println("Protocols:")
		for _, p := range machine.Protocols() {
			fmt.Printf("  %s\n", p)
		}
		fmt.Println("\nTable 1 variants:")
		for _, v := range tokencmp.Variants() {
			fmt.Printf("  %-22s transients=%d activation=%v predictor=%v filter=%v\n",
				v.Name, v.MaxTransients, v.Activation, v.Predictor, v.Filter)
		}
		return
	}

	if *seeds < 1 {
		fmt.Fprintln(os.Stderr, "mcsim: -seeds must be >= 1")
		os.Exit(2)
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	ctx := context.Background()
	if *timeout > 0 {
		var cancelBudget context.CancelFunc
		ctx, cancelBudget = context.WithTimeout(ctx, *timeout)
		defer cancelBudget()
	}

	// Run k of the sweep uses seed -seed+k and fault seed -faultseed+k,
	// so every run sees an independent workload and fault pattern.
	spec := experiments.Spec{
		Protocol:   *proto,
		Geom:       topo.NewGeometry(*cmps, *procs, *banks),
		Workload:   *wl,
		Locks:      *locks,
		Acquires:   *acquires,
		Barriers:   *barriers,
		WorkJitter: sim.NS(*wjitter),
		Txns:       *txns,
		Seed:       *seed,
		Seeds:      *seeds,
		Faults:     faultFlags(),
		Check:      *check,
	}
	// The cell folds every run that completed, so when the wall-clock
	// budget expires the completed runs are still reportable as partial
	// progress.
	cells, err := experiments.RunCells(ctx, []experiments.Spec{spec}, *jobs)
	c := cells[0]
	runs := c.Runtime.N()
	partial := runs > 0 && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled))
	if partial {
		// Budget expired: report what completed, then exit non-zero.
		fmt.Fprintf(os.Stderr, "mcsim: wall-clock budget %v exhausted: %d/%d seed runs completed; reporting partial results\n",
			*timeout, runs, *seeds)
	} else if err != nil {
		fmt.Fprintln(os.Stderr, err)
		stopProf() // flush a usable CPU profile even on failure
		os.Exit(1)
	}

	fmt.Printf("protocol:   %s\n", spec.Protocol)
	fmt.Printf("workload:   %s\n", spec.Workload)
	ctrTitle := "event counters:"
	if runs == 1 {
		// One run prints its exact simulated time; more print the mean
		// runtime with its 95% confidence interval.
		fmt.Printf("runtime:    %v\n", sim.Time(math.Round(c.Runtime.Mean()*float64(sim.Nanosecond))))
	} else {
		if partial {
			fmt.Printf("runs:       %d of %d requested (PARTIAL: -timeout %v expired)\n", runs, *seeds, *timeout)
		} else {
			fmt.Printf("runs:       %d (seeds %d..%d)\n", *seeds, *seed, *seed+int64(*seeds)-1)
		}
		fmt.Printf("runtime:    %s ns\n", c.Runtime.String())
		ctrTitle = "event counters (summed over all runs):"
	}
	fmt.Printf("events:     %d\n", c.Events)
	fmt.Printf("L1 misses:  %d\n", c.Misses)
	if c.Misses > 0 {
		fmt.Printf("persistent: %d (%.3f%% of misses)\n", c.Persist,
			100*float64(c.Persist)/float64(c.Misses))
	}
	fmt.Printf("acquires:   %d (mutual-exclusion violations: %d)\n", c.Acquires, c.Violations)
	for _, lvl := range []stats.Level{stats.IntraCMP, stats.InterCMP} {
		fmt.Printf("%s traffic: %d bytes in %d messages\n",
			lvl, c.Traffic.TotalBytes(lvl), c.Traffic.TotalMessages(lvl))
	}
	if *ctrs {
		fmt.Println(ctrTitle)
		counters.Fprint(os.Stdout, c.Counters)
	}
	if partial {
		stopProf()
		os.Exit(1)
	}
}
