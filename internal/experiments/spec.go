package experiments

import (
	"context"
	"fmt"
	"sort"

	"tokencmp/internal/counters"
	"tokencmp/internal/cpu"
	"tokencmp/internal/machine"
	"tokencmp/internal/network"
	"tokencmp/internal/runner"
	"tokencmp/internal/sim"
	"tokencmp/internal/topo"
	"tokencmp/internal/workload"
)

// Spec describes one seeded simulation: a protocol on a geometry running
// a named workload, plus the seed, fault plan, monitors, and event cap.
// mcsim, simd, the figure sweeps, and the claims harness all build their
// runs from a Spec, so one description means one run on every entry
// point.
type Spec struct {
	Protocol string // see machine.Protocols
	Geom     topo.Geometry
	Workload string // locking, barrier, OLTP, Apache, or SPECjbb

	// Workload knobs. Zero keeps the workload's own default; Locks has
	// none and must be set for the locking workload.
	Locks      int      // locking: number of locks
	Acquires   int      // locking: acquires per processor
	Barriers   int      // barrier: rounds
	WorkJitter sim.Time // barrier: bound of the U(-j, +j) work jitter
	Txns       int      // commercial: transactions per processor

	// Cache size overrides in bytes (zero keeps the Table 3 sizes).
	L1Size, L2BankSize int

	// Seed perturbs the workload (and TokenCMP's policies). Seeds is the
	// number of perturbed runs RunCells makes of the spec (at least
	// one): run k (k = 0..Seeds-1) uses seed Seed+k and fault seed
	// Faults.Seed+k, so every run sees an independent workload and fault
	// pattern. Run itself makes exactly one run at Seed.
	Seed   int64
	Seeds  int
	Faults network.FaultConfig
	Check  bool   // coherence monitors and token audit
	Limit  uint64 // event cap per run (0 = machine default)
}

// DefaultSpec is the run every entry point describes when no knob is
// given: TokenCMP-dst1 on the paper's four 4-way CMPs, running one seed
// of the locking micro-benchmark at 32 locks.
func DefaultSpec() Spec {
	return Spec{
		Protocol: "TokenCMP-dst1",
		Geom:     topo.NewGeometry(4, 4, 4),
		Workload: "locking",
		Locks:    32,
		Acquires: 64,
		Barriers: 20,
		Txns:     40,
		Seed:     1,
		Seeds:    1,
	}
}

// Run builds the machine and the workload programs and makes one run
// at s.Seed with s.Faults. The lock monitor records the workload's
// acquires and any mutual-exclusion violations.
func (s Spec) Run(ctx context.Context) (machine.Result, *workload.LockMonitor, error) {
	progs, mon, err := s.programs()
	if err != nil {
		return machine.Result{}, nil, err
	}
	m, err := machine.New(machine.Config{
		Protocol:         s.Protocol,
		Geom:             s.Geom,
		Seed:             s.Seed,
		CheckConsistency: s.Check,
		AuditTokens:      s.Check,
		Faults:           s.Faults,
		L1Size:           s.L1Size,
		L2BankSize:       s.L2BankSize,
	})
	if err != nil {
		return machine.Result{}, nil, err
	}
	res, err := m.RunCtx(ctx, progs, s.Limit)
	return res, mon, err
}

// programs maps the workload name and knobs to one program per
// processor.
func (s Spec) programs() ([]cpu.Program, *workload.LockMonitor, error) {
	procs := s.Geom.TotalProcs()
	switch s.Workload {
	case "locking":
		if s.Locks < 1 {
			return nil, nil, fmt.Errorf("experiments: locking needs at least one lock, got %d", s.Locks)
		}
		lc := workload.DefaultLocking(s.Locks)
		if s.Acquires > 0 {
			lc.Acquires = s.Acquires
		}
		progs, mon := workload.LockingPrograms(lc, procs, s.Seed)
		return progs, mon, nil
	case "barrier":
		bc := workload.DefaultBarrier(procs, s.WorkJitter)
		if s.Barriers > 0 {
			bc.Iterations = s.Barriers
		}
		progs, mon := workload.BarrierPrograms(bc, s.Seed)
		return progs, mon, nil
	}
	params, err := CommercialParamsFor(s.Workload)
	if err != nil {
		return nil, nil, err
	}
	if s.Txns > 0 {
		params.TxnsPerProc = s.Txns
	}
	progs, mon := workload.CommercialPrograms(params, procs, s.Seed)
	return progs, mon, nil
}

// Key is the canonical encoding of every field of s, nested structs
// included: two specs have equal keys exactly when they are equal.
func (s Spec) Key() string { return fmt.Sprintf("%#v", s) }

// outcome is one finished run of a sweep; mon is nil until it finished.
type outcome struct {
	res machine.Result
	mon *workload.LockMonitor
}

// sweep runs every perturbed run of every spec through one bounded
// worker pool — the whole experiment fans out at once, not one spec at
// a time — and returns each spec's outcomes in seed order. Each run owns
// its machine, so the outcomes are identical for any jobs value.
// Cancelling ctx stops dispatching new runs, and runs in flight stop
// within sim.CancelCheckEvery events; the runs that finished keep their
// outcomes alongside the error.
func sweep(ctx context.Context, specs []Spec, jobs int) ([][]outcome, error) {
	offsets := make([]int, len(specs)+1)
	for i, s := range specs {
		offsets[i+1] = offsets[i] + max(s.Seeds, 1)
	}
	flat := make([]outcome, offsets[len(specs)])
	err := runner.New(jobs).RunCtx(ctx, len(flat), func(i int) error {
		// si is the spec owning flat slot i: the smallest index with
		// offsets[si+1] > i.
		si := sort.SearchInts(offsets[1:], i+1)
		k := int64(i - offsets[si])
		run := specs[si]
		run.Seed, run.Faults.Seed, run.Seeds = run.Seed+k, run.Faults.Seed+k, 1
		res, mon, err := run.Run(ctx)
		if err != nil {
			return fmt.Errorf("%s seed %d: %w", run.Protocol, run.Seed, err)
		}
		flat[i] = outcome{res: res, mon: mon}
		return nil
	})
	out := make([][]outcome, len(specs))
	for si := range specs {
		out[si] = flat[offsets[si]:offsets[si+1]]
	}
	return out, err
}

// RunCells makes every perturbed run of every spec (see Spec.Seeds)
// through a pool of jobs workers (0 = one per CPU) and folds each
// spec's runs, in seed order, into its Cell. The cells are identical
// for any jobs value. On error the cells still hold the runs that
// finished, so a caller whose deadline expired can report partial
// progress.
func RunCells(ctx context.Context, specs []Spec, jobs int) ([]*Cell, error) {
	runs, err := sweep(ctx, specs, jobs)
	cells := make([]*Cell, len(specs))
	for si, rs := range runs {
		c := &Cell{Counters: map[string]uint64{}}
		for _, r := range rs {
			if r.mon == nil {
				continue // the run did not finish
			}
			c.Runtime.Add(float64(r.res.Runtime) / float64(sim.Nanosecond))
			c.Traffic.Merge(&r.res.Traffic)
			c.Events += r.res.Events
			c.Misses += r.res.Misses
			c.Persist += r.res.Persistent
			c.Acquires += r.mon.Acquires
			c.Violations += len(r.mon.Violations)
			counters.MergeInto(c.Counters, r.res.Counters)
		}
		cells[si] = c
	}
	return cells, err
}
