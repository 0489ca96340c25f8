package experiments

import (
	"testing"

	"tokencmp/internal/cpu"
	"tokencmp/internal/machine"
	"tokencmp/internal/mem"
	"tokencmp/internal/sim"
	"tokencmp/internal/topo"
	"tokencmp/internal/workload"
)

// counterProg stores an increasing counter into its own slot block and
// interleaves loads of every other processor's slot, so final slot
// values are protocol-independent (each slot has a single writer)
// while the loads cross-pollinate every cache in the system.
type counterProg struct {
	proc, procs int
	base        mem.Addr
	rounds, k   int
	phase       int
}

func (p *counterProg) slot(i int) mem.Addr { return p.base + mem.Addr(i)*mem.BlockSize }

func (p *counterProg) Next(now sim.Time, last uint64) cpu.Action {
	if p.k >= p.rounds {
		return cpu.Done()
	}
	switch p.phase {
	case 0:
		p.phase = 1
		return cpu.StoreOf(p.slot(p.proc), uint64(p.k+1))
	default:
		p.phase = 0
		other := (p.proc + p.k + 1) % p.procs
		p.k++
		return cpu.LoadOf(p.slot(other))
	}
}

// crossProtos is the consistency-comparison set: every protocol the
// machine builds.
var crossProtos = machine.Protocols()

// TestHammerCrossProtocolLocking runs the same locking program on every
// protocol with every coherence monitor enabled and asserts all of them
// stay clean and agree on the work performed.
func TestHammerCrossProtocolLocking(t *testing.T) {
	g := topo.NewGeometry(2, 2, 1)
	for _, proto := range crossProtos {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			m, err := machine.New(machine.Config{
				Protocol:         proto,
				Geom:             g,
				Seed:             1,
				CheckConsistency: true,
				AuditTokens:      true,
				L1Size:           8 << 10,
				L2BankSize:       32 << 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			lc := workload.DefaultLocking(4)
			lc.Acquires = 12
			progs, mon := workload.LockingPrograms(lc, g.TotalProcs(), 1)
			if _, err := m.Run(progs, 50_000_000); err != nil {
				t.Fatalf("%s: %v", proto, err)
			}
			if len(mon.Violations) > 0 {
				t.Fatalf("%s: mutual exclusion violated: %v", proto, mon.Violations[0])
			}
			if got, want := mon.Acquires, uint64(g.TotalProcs())*12; got != want {
				t.Errorf("%s: acquires = %d, want %d", proto, got, want)
			}
		})
	}
}

// TestHammerCrossProtocolFinalValues runs a single-writer-per-slot
// counter program on every protocol under the serial-view monitor
// and asserts the final memory contents, read back through the real
// ports, agree exactly across protocols.
func TestHammerCrossProtocolFinalValues(t *testing.T) {
	g := topo.NewGeometry(2, 2, 1)
	const base = mem.Addr(0x200000)
	const rounds = 12
	procs := g.TotalProcs()

	finals := make(map[string][]uint64)
	for _, proto := range crossProtos {
		m, err := machine.New(machine.Config{
			Protocol:         proto,
			Geom:             g,
			Seed:             1,
			CheckConsistency: true,
			AuditTokens:      true,
			L1Size:           8 << 10,
			L2BankSize:       32 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		progs := make([]cpu.Program, procs)
		for i := range progs {
			progs[i] = &counterProg{proc: i, procs: procs, base: base, rounds: rounds}
		}
		if _, err := m.Run(progs, 50_000_000); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		// Read every slot back through processor 0's monitored port: the
		// serial-view checker validates each load against the last store.
		vals := make([]uint64, procs)
		for i := 0; i < procs; i++ {
			addr := base + mem.Addr(i)*mem.BlockSize
			got := false
			m.Procs[0].Data.Access(cpu.Load, addr, 0, func(v uint64) {
				vals[i] = v
				got = true
			})
			m.Eng.Run(10_000_000)
			if !got {
				t.Fatalf("%s: final read of slot %d never completed", proto, i)
			}
		}
		if len(m.Violations) > 0 {
			t.Fatalf("%s: consistency violated on final reads: %v", proto, m.Violations[0])
		}
		finals[proto] = vals
	}

	want := finals[crossProtos[0]]
	for i := range want {
		if want[i] != rounds {
			t.Errorf("%s slot %d = %d, want %d", crossProtos[0], i, want[i], rounds)
		}
	}
	for _, proto := range crossProtos[1:] {
		for i := range want {
			if finals[proto][i] != want[i] {
				t.Errorf("final value mismatch at slot %d: %s=%d vs %s=%d",
					i, crossProtos[0], want[i], proto, finals[proto][i])
			}
		}
	}
}
