package tokencmp

import (
	"testing"

	"tokencmp/internal/cpu"
	"tokencmp/internal/hier"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
	"tokencmp/internal/topo"
)

func testSystem(t *testing.T, v Variant) (*sim.Engine, *System) {
	t.Helper()
	eng := sim.NewEngine()
	h := hier.Config{Geom: topo.NewGeometry(2, 2, 1), L1Size: 4 << 10, L2BankSize: 32 << 10}
	return eng, NewSystem(eng, h, DefaultConfig(v), network.Default())
}

// run drives the engine until cond or failure.
func run(t *testing.T, eng *sim.Engine, cond func() bool, what string) {
	t.Helper()
	if !eng.RunUntil(cond, 2_000_000) {
		t.Fatalf("%s: did not complete (events=%d, pending=%d, now=%v)",
			what, eng.Executed, eng.Pending(), eng.Now())
	}
}

func access(port cpu.MemPort, kind cpu.AccessKind, a mem.Addr, v uint64, done *bool, out *uint64) {
	port.Access(kind, a, v, func(val uint64) {
		*done = true
		if out != nil {
			*out = val
		}
	})
}

func TestSingleLoadFromMemory(t *testing.T) {
	for _, v := range Variants() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			eng, sys := testSystem(t, v)
			data, _ := sys.Ports(0)
			var done bool
			var val uint64
			access(data, cpu.Load, 0x1000, 0, &done, &val)
			run(t, eng, func() bool { return done }, "load")
			if val != 0 {
				t.Errorf("initial load = %d, want 0", val)
			}
			if err := sys.TokenAudit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStoreThenRemoteLoad(t *testing.T) {
	for _, v := range Variants() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			eng, sys := testSystem(t, v)
			p0, _ := sys.Ports(0)
			p3, _ := sys.Ports(3) // other CMP
			var done bool
			access(p0, cpu.Store, 0x2000, 42, &done, nil)
			run(t, eng, func() bool { return done }, "store")

			done = false
			var val uint64
			access(p3, cpu.Load, 0x2000, 0, &done, &val)
			run(t, eng, func() bool { return done }, "remote load")
			if val != 42 {
				t.Errorf("remote load = %d, want 42", val)
			}
			if err := sys.TokenAudit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAtomicSwapSerializes(t *testing.T) {
	for _, v := range Variants() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			eng, sys := testSystem(t, v)
			const addr = 0x3000
			results := make([]uint64, 4)
			doneCount := 0
			for i := 0; i < 4; i++ {
				i := i
				d, _ := sys.Ports(i)
				d.Access(cpu.Atomic, addr, uint64(i+1), func(old uint64) {
					results[i] = old
					doneCount++
				})
			}
			run(t, eng, func() bool { return doneCount == 4 }, "atomics")

			// The four swaps must linearize: the set of observed old
			// values must be {0} ∪ three of the written values, all
			// distinct.
			seen := map[uint64]bool{}
			for _, r := range results {
				if seen[r] {
					t.Fatalf("duplicate swap result %d: %v (atomicity violated)", r, results)
				}
				seen[r] = true
			}
			if !seen[0] {
				t.Errorf("no swap observed the initial value: %v", results)
			}
			if err := sys.TokenAudit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestContendedStores(t *testing.T) {
	for _, v := range Variants() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			eng, sys := testSystem(t, v)
			const addr = 0x4000
			total := 0
			var issue func(proc, n int)
			issue = func(proc, n int) {
				if n == 0 {
					return
				}
				d, _ := sys.Ports(proc)
				d.Access(cpu.Store, addr, uint64(proc*100+n), func(uint64) {
					total++
					issue(proc, n-1)
				})
			}
			for p := 0; p < 4; p++ {
				issue(p, 5)
			}
			run(t, eng, func() bool { return total == 20 }, "contended stores")
			if err := sys.TokenAudit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
