package perfectl2

import (
	"testing"

	"tokencmp/internal/counters"
	"tokencmp/internal/cpu"
	"tokencmp/internal/hier"
	"tokencmp/internal/sim"
	"tokencmp/internal/topo"
)

func newSys() (*sim.Engine, *System) {
	eng := sim.NewEngine()
	return eng, NewSystem(eng, hier.Config{Geom: topo.NewGeometry(2, 2, 1)})
}

func TestPerfectCoherence(t *testing.T) {
	eng, sys := newSys()
	p0, _ := sys.Ports(0)
	p3, _ := sys.Ports(3)
	var got uint64
	n := 0
	p0.Access(cpu.Store, 0x100, 55, func(uint64) { n++ })
	eng.RunUntil(func() bool { return n == 1 }, 0)
	p3.Access(cpu.Load, 0x100, 0, func(v uint64) { got = v; n++ })
	eng.RunUntil(func() bool { return n == 2 }, 0)
	if got != 55 {
		t.Errorf("remote load = %d, want 55", got)
	}
}

func TestL1HitTracking(t *testing.T) {
	eng, sys := newSys()
	p0, _ := sys.Ports(0)
	n := 0
	done := func(uint64) { n++ }
	p0.Access(cpu.Load, 0x200, 0, done) // miss to L2
	eng.RunUntil(func() bool { return n == 1 }, 0)
	p0.Access(cpu.Load, 0x200, 0, done) // L1 hit
	eng.RunUntil(func() bool { return n == 2 }, 0)
	hits, misses := sys.Ctrs.Value(counters.L1Hit), sys.Ctrs.Value(counters.L1Miss)
	if hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", hits, misses)
	}
	// A store by another processor invalidates p0's copy.
	p1, _ := sys.Ports(1)
	p1.Access(cpu.Store, 0x200, 1, done)
	eng.RunUntil(func() bool { return n == 3 }, 0)
	p0.Access(cpu.Load, 0x200, 0, done)
	eng.RunUntil(func() bool { return n == 4 }, 0)
	if misses := sys.Ctrs.Value(counters.L1Miss); misses != 3 { // p1's store missed too
		t.Errorf("misses = %d, want 3 (invalidation forced a refetch)", misses)
	}
}

func TestAtomicSwap(t *testing.T) {
	eng, sys := newSys()
	p0, _ := sys.Ports(0)
	var old uint64
	n := 0
	p0.Access(cpu.Atomic, 0x300, 42, func(v uint64) { old = v; n++ })
	eng.RunUntil(func() bool { return n == 1 }, 0)
	if old != 0 {
		t.Errorf("swap old = %d, want 0", old)
	}
	p0.Access(cpu.Load, 0x300, 0, func(v uint64) { old = v; n++ })
	eng.RunUntil(func() bool { return n == 2 }, 0)
	if old != 42 {
		t.Errorf("load after swap = %d, want 42", old)
	}
}
