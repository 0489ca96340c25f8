package machine

import (
	"fmt"
	"testing"

	"tokencmp/internal/counters"
	"tokencmp/internal/cpu"
	"tokencmp/internal/mem"
	"tokencmp/internal/sim"
	"tokencmp/internal/topo"
	"tokencmp/internal/workload"
)

// script is a program that replays a fixed list of actions.
type script []cpu.Action

func (s *script) Next(sim.Time, uint64) cpu.Action {
	if len(*s) == 0 {
		return cpu.Done()
	}
	a := (*s)[0]
	*s = (*s)[1:]
	return a
}

// TestHammerL2SpillsToHome drives a HammerCMP L2 bank past its
// capacity. With one-set L1s and L2 banks, processor 0 stores to more
// blocks than its L1 and its chip's one bank hold together, so each
// store evicts an owned L1 line into the bank and the bank spills its
// own victims to their homes. Every processor then loads every block,
// twice over, under the serial-view monitor, which must see the last
// store each time.
func TestHammerL2SpillsToHome(t *testing.T) {
	const blocks = 12
	cfg := Config{
		Protocol:         "HammerCMP",
		Geom:             topo.NewGeometry(2, 2, 1),
		Seed:             1,
		CheckConsistency: true,
		L1Size:           256,
		L2BankSize:       256,
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr := func(i int) mem.Addr { return mem.Addr(i * mem.BlockSize) }
	progs := make([]cpu.Program, cfg.Geom.TotalProcs())
	for p := range progs {
		var s script
		// Processors wait for their turn, so the loads and stores run
		// one processor at a time.
		s = append(s, cpu.Think(sim.NS(int64(p)*100_000)))
		for round := uint64(1); round <= 2; round++ {
			if p == 0 {
				for i := range blocks {
					s = append(s, cpu.StoreOf(addr(i), round*100+uint64(i)))
				}
			}
			for i := range blocks {
				s = append(s, cpu.LoadOf(addr(i)))
			}
		}
		progs[p] = &s
	}
	res, err := m.Run(progs, 10_000_000) // fails on a serial-view violation
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counters[counters.L2Writeback]; got == 0 {
		t.Error("l2.writeback = 0: no L2 bank spilled to home")
	}
	if got := res.Counters[counters.L1Writeback]; got == 0 {
		t.Error("l1.writeback = 0: no owned L1 line was written back")
	}
}

// TestWritebackRacesOnTinyCaches runs OLTP on DirectoryCMP and
// HammerCMP with 1 KB L1s and 2 KB L2 banks, so lines are evicted while
// requests for them are in flight: forwards and probes find the line
// in the writeback buffer, a home forward waits out a bank recall, and
// an invalidation meets a placeholder line. The serial-view monitor
// fails the run on a stale read, and the lock monitor must see no
// mutual-exclusion violation.
func TestWritebackRacesOnTinyCaches(t *testing.T) {
	for _, proto := range []string{"DirectoryCMP", "HammerCMP"} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", proto, seed), func(t *testing.T) {
				m, err := New(Config{
					Protocol:         proto,
					Geom:             topo.NewGeometry(2, 2, 2),
					Seed:             seed,
					CheckConsistency: true,
					L1Size:           1 << 10,
					L2BankSize:       2 << 10,
				})
				if err != nil {
					t.Fatal(err)
				}
				progs, mon := workload.CommercialPrograms(workload.OLTP(), m.Cfg.Geom.TotalProcs(), seed)
				if _, err := m.Run(progs, 50_000_000); err != nil {
					t.Fatal(err)
				}
				if len(mon.Violations) > 0 {
					t.Fatalf("mutual exclusion violated: %v", mon.Violations[0])
				}
			})
		}
	}
}
