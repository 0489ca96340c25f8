package machine

import (
	"testing"

	"tokencmp/internal/counters"
	"tokencmp/internal/cpu"
	"tokencmp/internal/mem"
)

// TestSteadyStateMissDoesNotAllocate pins every stack's whole miss path
// at zero allocations once its per-block tables have grown: L1 and L2
// conflict misses that fetch from memory and write victims back, and a
// block whose ownership ping-pongs between two chips through its home.
func TestSteadyStateMissDoesNotAllocate(t *testing.T) {
	// smallCfg's caches: 32 L1 sets and 256 L2 sets of 4 ways, one bank
	// per chip, so blocks 512 apart share one L1 set and one L2 set, and
	// even blocks are homed on chip 0, odd ones on chip 1. Eight blocks
	// per set thrash both levels.
	const conflicting = 16
	for _, proto := range Protocols() {
		t.Run(proto, func(t *testing.T) {
			m, err := New(smallCfg(proto))
			if err != nil {
				t.Fatal(err)
			}
			near, _ := m.Proto.Ports(0)
			far, _ := m.Proto.Ports(m.Cfg.Geom.ProcsPerCMP) // first processor of chip 1
			completed := 0
			done := func(uint64) { completed++ }
			access := func(p cpu.MemPort, kind cpu.AccessKind, b mem.Block) {
				before := completed
				p.Access(kind, b.Addr(), uint64(b)+1, done)
				m.Eng.Run(0)
				if completed != before+1 {
					t.Fatalf("access to %v did not complete", b)
				}
			}
			scenarios := []struct {
				name string
				run  func()
				want []string // counters the rounds must move
			}{
				{"conflict misses", func() {
					for k := mem.Block(0); k < conflicting; k++ {
						b := k/2*512 + k%2
						if k%3 == 0 {
							access(near, cpu.Load, b)
						} else {
							access(near, cpu.Store, b)
						}
					}
				}, []string{counters.L1Miss, counters.L1Writeback}},
				{"ownership ping-pong", func() {
					for _, b := range []mem.Block{0x10000, 0x10001} {
						access(near, cpu.Store, b)
						access(far, cpu.Load, b)
						access(far, cpu.Atomic, b)
						access(near, cpu.Load, b)
					}
				}, []string{counters.L1Miss}},
			}
			for _, sc := range scenarios {
				for i := 0; i < 4; i++ { // grow every table and pool
					sc.run()
				}
				before := m.Counters()
				if avg := testing.AllocsPerRun(20, sc.run); avg != 0 {
					t.Errorf("%s: %.2f allocations per round, want 0", sc.name, avg)
				}
				after := m.Counters()
				for _, c := range sc.want {
					if proto != "PerfectL2" && after[c] == before[c] {
						t.Errorf("%s: no %s in the measured rounds", sc.name, c)
					}
				}
			}
		})
	}
}
