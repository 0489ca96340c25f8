package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

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
//
// Validate alone decides whether a Spec can run, and RunCells calls it
// on every spec before it starts any run. A valid Spec names one of
// machine.Protocols and one of WorkloadNames; has at least one CMP,
// processor per CMP and L2 bank per CMP; sets Locks to at least 1 for
// the locking workload and no other knob or cache size below 0; makes
// at least one seed run; keeps both jitters, WorkJitter and
// Faults.Jitter, in [0, MaxJitter]; and has Faults that pass
// network.FaultConfig.Validate.
type Spec struct {
	Protocol string // see machine.Protocols
	Geom     topo.Geometry
	Workload string // see WorkloadNames

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
	// number of perturbed runs RunCells makes of the spec: run k
	// (k = 0..Seeds-1) uses seed Seed+k and fault seed Faults.Seed+k, so
	// every run sees an independent workload and fault pattern.
	Seed   int64
	Seeds  int
	Faults network.FaultConfig
	Check  bool   // coherence monitors and token audit
	Limit  uint64 // event cap per run (0 = machine default)
}

// MaxJitter bounds both jitters of a Spec, the barrier work jitter and
// the network's fault jitter, so that no accepted run passes
// math.MaxInt64 ps. Each event lands at most the jitter plus the
// largest fixed delay (the barrier's 3000 ns of work) after the event
// that scheduled it, so the 4e9-event default cap (machine.RunCtx)
// stops a run by 4e9 × 1.003 ms ≈ 4.01e18 ps, under half of 9.22e18.
// The other half covers TokenCMP's retry timeout, twice an average of
// latencies that are themselves sums of such delays.
const MaxJitter = sim.Millisecond

// ErrInvalidSpec is wrapped by every error Validate returns, so a
// command can tell a run it refused from a run that failed.
var ErrInvalidSpec = errors.New("invalid run")

// workloads is every workload a Spec can name, in the order help text
// and errors list them. commercial builds a surrogate's parameters and
// is nil for the micro-benchmarks.
var workloads = []struct {
	name       string
	commercial func() workload.CommercialParams
}{
	{"locking", nil},
	{"barrier", nil},
	{"OLTP", workload.OLTP},
	{"Apache", workload.Apache},
	{"SPECjbb", workload.SPECjbb},
}

// lookupWorkload returns name's entry in workloads.
func lookupWorkload(name string) (commercial func() workload.CommercialParams, ok bool) {
	for _, w := range workloads {
		if w.name == name {
			return w.commercial, true
		}
	}
	return nil, false
}

// WorkloadNames returns every workload a Spec can name, in table order.
func WorkloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// CommercialParamsFor returns the surrogate parameters by name.
func CommercialParamsFor(name string) (workload.CommercialParams, error) {
	if commercial, _ := lookupWorkload(name); commercial != nil {
		return commercial(), nil
	}
	return workload.CommercialParams{}, fmt.Errorf("unknown commercial workload %q", name)
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

// Validate returns nil when s can run (see Spec), and otherwise an
// error wrapping ErrInvalidSpec that names the first rule s breaks.
func (s Spec) Validate() error {
	if err := machine.CheckProtocol(s.Protocol); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidSpec, err)
	}
	if _, ok := lookupWorkload(s.Workload); !ok {
		return fmt.Errorf("%w: unknown workload %q (known: %s)", ErrInvalidSpec, s.Workload, strings.Join(WorkloadNames(), ", "))
	}
	minLocks := 0
	if s.Workload == "locking" {
		minLocks = 1
	}
	for _, b := range []struct {
		name   string
		v, min int
	}{
		{"cmps", s.Geom.CMPs, 1},
		{"procs", s.Geom.ProcsPerCMP, 1},
		{"banks", s.Geom.L2Banks, 1},
		{"locks", s.Locks, minLocks},
		{"acquires", s.Acquires, 0},
		{"barriers", s.Barriers, 0},
		{"txns", s.Txns, 0},
		{"l1size", s.L1Size, 0},
		{"l2banksize", s.L2BankSize, 0},
		{"seeds", s.Seeds, 1},
	} {
		if b.v < b.min {
			return fmt.Errorf("%w: %s must be >= %d, got %d", ErrInvalidSpec, b.name, b.min, b.v)
		}
	}
	if s.Geom.ProcsPerCMP > topo.MaxProcsPerCMP || s.Geom.CMPs > topo.MaxCMPs {
		return fmt.Errorf("%w: procs must be <= %d and cmps <= %d (the sharer masks are 64 bits), got %d and %d",
			ErrInvalidSpec, topo.MaxProcsPerCMP, topo.MaxCMPs, s.Geom.ProcsPerCMP, s.Geom.CMPs)
	}
	if err := s.Faults.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidSpec, err)
	}
	if s.WorkJitter < 0 || s.WorkJitter > MaxJitter || s.Faults.Jitter > MaxJitter {
		return fmt.Errorf("%w: workjitter and jitter must be in [0, %d] ns, got %d and %d ns",
			ErrInvalidSpec, MaxJitter.Nanoseconds(), s.WorkJitter.Nanoseconds(), s.Faults.Jitter.Nanoseconds())
	}
	return nil
}

// OpsPerProc returns the knob that sizes each processor's work: Txns
// for a commercial workload, Barriers for barrier, and Acquires for
// locking or a name outside the table.
func (s Spec) OpsPerProc() int {
	if commercial, _ := lookupWorkload(s.Workload); commercial != nil {
		return s.Txns
	}
	if s.Workload == "barrier" {
		return s.Barriers
	}
	return s.Acquires
}

// run builds the machine and the workload programs of a valid spec and
// makes one run at s.Seed with s.Faults. The lock monitor records the
// workload's acquires and any mutual-exclusion violations.
func (s Spec) run(ctx context.Context) (machine.Result, *workload.LockMonitor, error) {
	progs, mon := s.programs()
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

// programs maps the workload name and knobs of a valid spec to one
// program per processor.
func (s Spec) programs() ([]cpu.Program, *workload.LockMonitor) {
	procs := s.Geom.TotalProcs()
	switch s.Workload {
	case "locking":
		lc := workload.DefaultLocking(s.Locks)
		if s.Acquires > 0 {
			lc.Acquires = s.Acquires
		}
		return workload.LockingPrograms(lc, procs, s.Seed)
	case "barrier":
		bc := workload.DefaultBarrier(procs, s.WorkJitter)
		if s.Barriers > 0 {
			bc.Iterations = s.Barriers
		}
		return workload.BarrierPrograms(bc, s.Seed)
	}
	commercial, _ := lookupWorkload(s.Workload)
	params := commercial()
	if s.Txns > 0 {
		params.TxnsPerProc = s.Txns
	}
	return workload.CommercialPrograms(params, procs, s.Seed)
}

// Key is the canonical encoding of every field of s, nested structs
// included: two specs have equal keys exactly when they are equal.
func (s Spec) Key() string { return fmt.Sprintf("%#v", s) }

// outcome is one finished run of runAll; mon is nil until it finished.
type outcome struct {
	res machine.Result
	mon *workload.LockMonitor
}

// runAll makes every perturbed run of every spec through one bounded
// worker pool — the whole experiment fans out at once, not one spec at
// a time — and returns each spec's outcomes in seed order. Each run owns
// its machine, so the outcomes are identical for any jobs value.
// Cancelling ctx stops dispatching new runs, and runs in flight stop
// within sim.CancelCheckEvery events; the runs that finished keep their
// outcomes alongside the error.
func runAll(ctx context.Context, specs []Spec, jobs int) ([][]outcome, error) {
	offsets := make([]int, len(specs)+1)
	for i, s := range specs {
		offsets[i+1] = offsets[i] + s.Seeds
	}
	flat := make([]outcome, offsets[len(specs)])
	err := runner.New(jobs).RunCtx(ctx, len(flat), func(i int) error {
		// si is the spec owning flat slot i: the smallest index with
		// offsets[si+1] > i.
		si := sort.SearchInts(offsets[1:], i+1)
		k := int64(i - offsets[si])
		run := specs[si]
		run.Seed, run.Faults.Seed, run.Seeds = run.Seed+k, run.Faults.Seed+k, 1
		res, mon, err := run.run(ctx)
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
// for any jobs value. A spec that fails Validate stops the call before
// any run starts, with nil cells. On any other error the cells still
// hold the runs that finished, so a caller whose deadline expired can
// report partial progress.
func RunCells(ctx context.Context, specs []Spec, jobs int) ([]*Cell, error) {
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	runs, err := runAll(ctx, specs, jobs)
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
