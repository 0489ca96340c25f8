package experiments

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"testing"

	"tokencmp/internal/sim"
	"tokencmp/internal/topo"
)

// TestSpecValidate covers every rule of Spec.Validate, starting from
// DefaultSpec (the locking workload at 32 locks). Every error must wrap
// ErrInvalidSpec, so the commands can exit 2 on it.
func TestSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Spec)
		ok   bool
	}{
		{"defaults", func(*Spec) {}, true},
		{"zero acquires, barriers and txns keep defaults", func(s *Spec) { s.Acquires, s.Barriers, s.Txns = 0, 0, 0 }, true},
		{"zero locks off the locking workload", func(s *Spec) { s.Workload, s.Locks = "barrier", 0 }, true},
		{"zero locks on the locking workload", func(s *Spec) { s.Locks = 0 }, false},
		{"zero workjitter", func(s *Spec) { s.WorkJitter = 0 }, true},
		{"positive workjitter", func(s *Spec) { s.WorkJitter = sim.NS(5) }, true},
		{"one of everything", func(s *Spec) { s.Geom.CMPs, s.Geom.ProcsPerCMP, s.Geom.L2Banks = 1, 1, 1 }, true},
		{"every protocol", func(s *Spec) { s.Protocol = "PerfectL2" }, true},
		{"every workload", func(s *Spec) { s.Workload = "SPECjbb" }, true},
		{"unknown protocol", func(s *Spec) { s.Protocol = "Nope" }, false},
		{"case-changed protocol", func(s *Spec) { s.Protocol = "tokencmp-dst1" }, false},
		{"unknown workload", func(s *Spec) { s.Workload = "Nope" }, false},
		{"chaos workload", func(s *Spec) { s.Workload = "__panic" }, false},
		{"cmps 0", func(s *Spec) { s.Geom.CMPs = 0 }, false},
		{"cmps -1", func(s *Spec) { s.Geom.CMPs = -1 }, false},
		{"procs 0", func(s *Spec) { s.Geom.ProcsPerCMP = 0 }, false},
		{"banks 0", func(s *Spec) { s.Geom.L2Banks = 0 }, false},
		// The 64-bit sharer masks hold 2·32 L1s per CMP and 64 CMPs.
		{"procs at MaxProcsPerCMP", func(s *Spec) { s.Geom.ProcsPerCMP = topo.MaxProcsPerCMP }, true},
		{"procs past MaxProcsPerCMP", func(s *Spec) { s.Geom.ProcsPerCMP = topo.MaxProcsPerCMP + 1 }, false},
		{"procs 65", func(s *Spec) { s.Geom.ProcsPerCMP = 65 }, false},
		{"cmps at MaxCMPs", func(s *Spec) { s.Geom.CMPs = topo.MaxCMPs }, true},
		{"cmps past MaxCMPs", func(s *Spec) { s.Geom.CMPs = topo.MaxCMPs + 1 }, false},
		{"locks -1", func(s *Spec) { s.Locks = -1 }, false},
		{"locks -1 off the locking workload", func(s *Spec) { s.Workload, s.Locks = "OLTP", -1 }, false},
		{"acquires -5", func(s *Spec) { s.Acquires = -5 }, false},
		{"barriers -1", func(s *Spec) { s.Barriers = -1 }, false},
		{"txns -1", func(s *Spec) { s.Txns = -1 }, false},
		{"l1size -1", func(s *Spec) { s.L1Size = -1 }, false},
		{"l2banksize -1", func(s *Spec) { s.L2BankSize = -1 }, false},
		{"seeds 0", func(s *Spec) { s.Seeds = 0 }, false},
		{"seeds -1", func(s *Spec) { s.Seeds = -1 }, false},
		{"workjitter -5", func(s *Spec) { s.WorkJitter = sim.NS(-5) }, false},
		{"workjitter at MaxJitter", func(s *Spec) { s.WorkJitter = MaxJitter }, true},
		{"workjitter past MaxJitter", func(s *Spec) { s.WorkJitter = MaxJitter + 1 }, false},
		// The old bound: the largest nanosecond count that fits in
		// picosecond sim.Time. It panicked a barrier run.
		{"workjitter at the sim.Time bound", func(s *Spec) { s.WorkJitter = sim.NS(9223372036854775) }, false},
		{"workjitter past the sim.Time bound", func(s *Spec) { s.WorkJitter = sim.NS(9223372036854776) }, false},
		{"fault plan", func(s *Spec) { s.Faults.Drop, s.Faults.Dup, s.Faults.Reorder = 0.99, 1, 1 }, true},
		{"fault drop 1", func(s *Spec) { s.Faults.Drop = 1 }, false},
		{"fault dup NaN", func(s *Spec) { s.Faults.Dup = math.NaN() }, false},
		{"fault jitter -1", func(s *Spec) { s.Faults.Jitter = sim.NS(-1) }, false},
		{"fault jitter at MaxJitter", func(s *Spec) { s.Faults.Jitter = MaxJitter }, true},
		{"fault jitter past MaxJitter", func(s *Spec) { s.Faults.Jitter = MaxJitter + 1 }, false},
		// A run at this jitter stopped with "did not finish": its clock
		// wrapped.
		{"fault jitter 4611686018427387 ns", func(s *Spec) { s.Faults.Jitter = sim.NS(4611686018427387) }, false},
		{"fault jitter at the sim.Time bound", func(s *Spec) { s.Faults.Jitter = sim.NS(9223372036854775) }, false},
		{"fault jitter past the sim.Time bound", func(s *Spec) { s.Faults.Jitter = sim.NS(9223372036854776) }, false},
	} {
		s := DefaultSpec()
		tc.edit(&s)
		err := s.Validate()
		if (err == nil) != tc.ok || err != nil && !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestRunCellsValidatesFirst checks that one invalid spec stops
// RunCells before any run: the valid spec before it never runs.
func TestRunCellsValidatesFirst(t *testing.T) {
	good, bad := DefaultSpec(), DefaultSpec()
	bad.Locks = 0
	cells, err := RunCells(context.Background(), []Spec{good, bad}, 1)
	if !errors.Is(err, ErrInvalidSpec) || cells != nil {
		t.Fatalf("RunCells = %v, %v; want nil cells and ErrInvalidSpec", cells, err)
	}
}

// cancelled returns a context that is already done. RunCells validates
// before it looks at the context, so a run under it ends with the
// context's error exactly when every spec is valid.
func cancelled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestDefaultsValidate keeps the defaults valid, so a tighter rule can
// never make a command reject its own defaults: DefaultSpec, and every
// spec a Figures record runs under DefaultOptions (Table 4's 1000 ns
// work jitter included).
func TestDefaultsValidate(t *testing.T) {
	if err := DefaultSpec().Validate(); err != nil {
		t.Errorf("DefaultSpec: %v", err)
	}
	opt := DefaultOptions()
	opt.Context = cancelled()
	for _, id := range FigureIDs() {
		if err := RunFigures(io.Discard, []string{id}, opt, false); !errors.Is(err, context.Canceled) {
			t.Errorf("figure %s under DefaultOptions: %v, want only the cancelled context's error", id, err)
		}
	}
}

// TestRunFiguresRejectsInvalidOptions checks the figures' knobs: seeds
// at least 1, and acquires, barriers and txns not negative (zero keeps
// the default). A refused selection prints nothing, even when a valid
// figure comes before the one whose knob is out of range.
func TestRunFiguresRejectsInvalidOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		ids  []string
		edit func(*Options)
		ok   bool
	}{
		{"lock figures, one seed", []string{"2", "3"}, func(o *Options) { o.Seeds = 1 }, true},
		{"lock figures, zero acquires keeps default", []string{"2", "3"}, func(o *Options) { o.Acquires = 0 }, true},
		{"lock figure, seeds 0", []string{"2"}, func(o *Options) { o.Seeds = 0 }, false},
		{"lock figures, seeds -1", []string{"2", "3"}, func(o *Options) { o.Seeds = -1 }, false},
		{"lock figures, acquires -2", []string{"2", "3"}, func(o *Options) { o.Acquires = -2 }, false},
		{"barrier table, one seed", []string{"4"}, func(o *Options) { o.Seeds = 1 }, true},
		{"barrier table, zero barriers keeps default", []string{"4"}, func(o *Options) { o.Barriers = 0 }, true},
		{"barrier table, seeds 0", []string{"4"}, func(o *Options) { o.Seeds = 0 }, false},
		{"barrier table, seeds -1", []string{"4"}, func(o *Options) { o.Seeds = -1 }, false},
		{"barrier table, barriers -3", []string{"4"}, func(o *Options) { o.Barriers = -3 }, false},
		{"commercial figures, one seed", []string{"6", "7a", "7b"}, func(o *Options) { o.Seeds = 1 }, true},
		{"commercial figures, zero txns keeps default", []string{"6", "7a", "7b"}, func(o *Options) { o.TxnsPerProc = 0 }, true},
		{"commercial figure, seeds 0", []string{"6"}, func(o *Options) { o.Seeds = 0 }, false},
		{"commercial figures, seeds -2", []string{"6", "7a", "7b"}, func(o *Options) { o.Seeds = -2 }, false},
		{"commercial figures, txns -1", []string{"6", "7a", "7b"}, func(o *Options) { o.TxnsPerProc = -1 }, false},
		{"figures 2 and 6, txns -1", []string{"2", "6"}, func(o *Options) { o.TxnsPerProc = -1 }, false},
		{"every figure, fault drop 1", FigureIDs(), func(o *Options) { o.Faults.Drop = 1 }, false},
	} {
		opt := DefaultOptions()
		opt.Context = cancelled()
		tc.edit(&opt)
		var out bytes.Buffer
		err := RunFigures(&out, tc.ids, opt, false)
		if tc.ok && !errors.Is(err, context.Canceled) || !tc.ok && !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: RunFigures = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if out.Len() > 0 {
			t.Errorf("%s: printed %q with every run cancelled or refused", tc.name, out.String())
		}
	}
}
