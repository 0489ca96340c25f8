package experiments

import (
	"context"
	"reflect"
	"testing"

	"tokencmp/internal/counters"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
	"tokencmp/internal/topo"
)

// faultedSpec is a small faulted locking sweep: three seeds of
// TokenCMP-dst1 on a 2x2x2 machine whose interconnect drops,
// duplicates, reorders, and jitters messages.
func faultedSpec() Spec {
	spec := DefaultSpec()
	spec.Geom = topo.NewGeometry(2, 2, 2)
	spec.Locks, spec.Acquires = 4, 8
	spec.Seeds = 3
	spec.Check = true
	spec.Faults = network.UniformFaults(7, 0.1, 0.02, 0.05, sim.NS(3))
	return spec
}

// TestSpecReproducesSweepRun pins the per-seed rule every entry point
// shares: run k (1-based) of a sweep from Seed 1 with fault seed F is
// exactly the one-seed Spec with Seed=k and Faults.Seed=F+k-1.
func TestSpecReproducesSweepRun(t *testing.T) {
	spec := faultedSpec()
	swept, err := RunSeeds(context.Background(), spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	dropped := uint64(0)
	for k := 1; k <= spec.Seeds; k++ {
		one := spec
		one.Seed, one.Faults.Seed, one.Seeds = int64(k), spec.Faults.Seed+int64(k)-1, 1
		res, _, err := one.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, swept[k-1]) {
			t.Errorf("seed %d: one-seed spec %+v differs from run %d of the sweep", k, res, k)
		}
		dropped += res.Counters[counters.NetDropped]
	}
	if dropped == 0 {
		t.Fatal("fault injector never fired: the test proves nothing about the fault seed")
	}
}

// TestRunCellsFoldsMonitor asserts a cell carries the lock monitor and
// event totals of its runs, identically for any worker count.
func TestRunCellsFoldsMonitor(t *testing.T) {
	spec := faultedSpec()
	serial, err := RunCells(context.Background(), []Spec{spec}, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunCells(context.Background(), []Spec{spec}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("cells differ between jobs=1 and jobs=3:\n%+v\n%+v", serial[0], parallel[0])
	}
	c := serial[0]
	if want := uint64(spec.Seeds * spec.Geom.TotalProcs() * spec.Acquires); c.Acquires != want || c.Violations != 0 {
		t.Errorf("acquires %d violations %d, want %d and 0", c.Acquires, c.Violations, want)
	}
	if c.Runtime.N() != spec.Seeds || c.Events == 0 {
		t.Errorf("cell folds %d runs and %d events, want %d runs", c.Runtime.N(), c.Events, spec.Seeds)
	}
}

// TestSpecKeyCoversEveryField asserts that changing any one field of a
// Spec changes its key, so the key is a canonical encoding.
func TestSpecKeyCoversEveryField(t *testing.T) {
	base := faultedSpec()
	mutations := map[string]func(s *Spec){
		"Protocol":            func(s *Spec) { s.Protocol = "HammerCMP" },
		"Geom":                func(s *Spec) { s.Geom = topo.NewGeometry(2, 2, 1) },
		"Workload":            func(s *Spec) { s.Workload = "barrier" },
		"Locks":               func(s *Spec) { s.Locks++ },
		"Acquires":            func(s *Spec) { s.Acquires++ },
		"Barriers":            func(s *Spec) { s.Barriers++ },
		"WorkJitter":          func(s *Spec) { s.WorkJitter++ },
		"Txns":                func(s *Spec) { s.Txns++ },
		"L1Size":              func(s *Spec) { s.L1Size++ },
		"L2BankSize":          func(s *Spec) { s.L2BankSize++ },
		"Seed":                func(s *Spec) { s.Seed++ },
		"Seeds":               func(s *Spec) { s.Seeds++ },
		"Check":               func(s *Spec) { s.Check = !s.Check },
		"Limit":               func(s *Spec) { s.Limit++ },
		"Faults.Seed":         func(s *Spec) { s.Faults.Seed++ },
		"Faults.RetxTimeout":  func(s *Spec) { s.Faults.RetxTimeout++ },
		"Faults.OnChip.Drop":  func(s *Spec) { s.Faults.OnChip.Drop /= 2 },
		"Faults.OnChip.Dup":   func(s *Spec) { s.Faults.OnChip.Dup /= 2 },
		"Faults.OffChip.Reor": func(s *Spec) { s.Faults.OffChip.Reorder /= 2 },
		"Faults.OffChip.Win":  func(s *Spec) { s.Faults.OffChip.ReorderWindow++ },
		"Faults.OffChip.Jit":  func(s *Spec) { s.Faults.OffChip.Jitter++ },
	}
	if n := reflect.TypeOf(Spec{}).NumField(); n != 15 {
		t.Fatalf("Spec has %d fields; cover the new ones here", n)
	}
	for name, mutate := range mutations {
		s := base
		mutate(&s)
		if s == base {
			t.Fatalf("%s: mutation left the spec unchanged", name)
		}
		if s.Key() == base.Key() {
			t.Errorf("%s: key unchanged by the mutation: %s", name, s.Key())
		}
	}
}
