package machine_test

import (
	"fmt"

	"tokencmp/internal/cpu"
	"tokencmp/internal/machine"
	"tokencmp/internal/sim"
	"tokencmp/internal/stats"
	"tokencmp/internal/topo"
	"tokencmp/internal/workload"
)

// handoff is a minimal hand-written Program: the producer stores a value,
// then the consumer (on another CMP) loads it.
type handoff struct {
	producer bool
	step     int
	got      uint64
}

func (h *handoff) Next(now sim.Time, last uint64) cpu.Action {
	h.step++
	const addr = 0x1000
	if h.producer {
		switch h.step {
		case 1:
			return cpu.StoreOf(addr, 42)
		default:
			return cpu.Done()
		}
	}
	switch h.step {
	case 1:
		return cpu.Think(sim.NS(500)) // let the producer go first
	case 2:
		return cpu.LoadOf(addr)
	default:
		h.got = last
		return cpu.Done()
	}
}

// Build the paper's target system (four 4-way CMPs, four L2 banks
// each) running TokenCMP, hand a value from a processor on CMP 0 to one
// on CMP 3, and print what the protocol did.
func Example_quickstart() {
	m, err := machine.New(machine.Config{
		Protocol:         "TokenCMP-dst1",
		Geom:             topo.NewGeometry(4, 4, 4),
		CheckConsistency: true,
		AuditTokens:      true,
	})
	if err != nil {
		panic(err)
	}

	progs := make([]cpu.Program, m.Cfg.Geom.TotalProcs())
	consumer := &handoff{}
	progs[0] = &handoff{producer: true} // processor 0, CMP 0
	progs[12] = consumer                // processor 12, CMP 3
	for i := range progs {
		if progs[i] == nil {
			progs[i] = &handoff{step: 99} // idle: finishes immediately
		}
	}

	res, err := m.Run(progs, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("consumer on CMP 3 loaded %d (stored by CMP 0)\n", consumer.got)
	fmt.Printf("simulated time: %v, events: %d, L1 misses: %d\n",
		res.Runtime, res.Events, res.Misses)
	fmt.Printf("inter-CMP bytes: %d, intra-CMP bytes: %d\n",
		res.Traffic.TotalBytes(stats.InterCMP), res.Traffic.TotalBytes(stats.IntraCMP))
	fmt.Println("token conservation audit: passed (AuditTokens)")
	// Output:
	// consumer on CMP 3 loaded 42 (stored by CMP 0)
	// simulated time: 567.250ns, events: 86, L1 misses: 2
	// inter-CMP bytes: 208, intra-CMP bytes: 520
	// token conservation audit: passed (AuditTokens)
}

// Run the paper's test-and-test-and-set locking micro-benchmark
// (Table 2) on DirectoryCMP and on TokenCMP-dst1, verifying mutual
// exclusion as it runs and comparing runtimes: a miniature Figure 3.
func Example_locking() {
	for _, contention := range []int{4, 256} {
		fmt.Printf("--- %d locks, 16 processors ---\n", contention)
		for _, proto := range []string{"DirectoryCMP", "TokenCMP-dst1"} {
			m, err := machine.New(machine.Config{
				Protocol:         proto,
				Geom:             topo.NewGeometry(4, 4, 4),
				Seed:             7,
				CheckConsistency: true,
			})
			if err != nil {
				panic(err)
			}
			cfg := workload.DefaultLocking(contention)
			cfg.Acquires = 32
			progs, mon := workload.LockingPrograms(cfg, m.Cfg.Geom.TotalProcs(), 7)
			res, err := m.Run(progs, 0)
			if err != nil {
				panic(err)
			}
			fmt.Printf("%-16s runtime %-10v acquires %4d  mutual-exclusion violations %d\n",
				proto, res.Runtime, mon.Acquires, len(mon.Violations))
		}
	}
	// Output:
	// --- 4 locks, 16 processors ---
	// DirectoryCMP     runtime 12.918us   acquires  512  mutual-exclusion violations 0
	// TokenCMP-dst1    runtime 15.709us   acquires  512  mutual-exclusion violations 0
	// --- 256 locks, 16 processors ---
	// DirectoryCMP     runtime 6.351us    acquires  512  mutual-exclusion violations 0
	// TokenCMP-dst1    runtime 4.856us    acquires  512  mutual-exclusion violations 0
}

// Run the OLTP surrogate (the paper's best case for TokenCMP: migratory
// read-modify-write sharing dominates) on the hierarchical directory
// baseline, on TokenCMP-dst1, and on the perfect-L2 bound, and print the
// speedup the paper reports in Figure 6.
func Example_commercial() {
	runtimes := map[string]sim.Time{}
	for _, proto := range []string{"DirectoryCMP", "TokenCMP-dst1", "PerfectL2"} {
		m, err := machine.New(machine.Config{
			Protocol: proto,
			Geom:     topo.NewGeometry(4, 4, 4),
			Seed:     3,
		})
		if err != nil {
			panic(err)
		}
		params := workload.OLTP()
		params.TxnsPerProc = 25
		progs, _ := workload.CommercialPrograms(params, m.Cfg.Geom.TotalProcs(), 3)
		res, err := m.Run(progs, 0)
		if err != nil {
			panic(err)
		}
		runtimes[proto] = res.Runtime
		fmt.Printf("%-14s runtime %v  (L1 misses %d, persistent %d)\n",
			proto, res.Runtime, res.Misses, res.Persistent)
	}
	speedup := float64(runtimes["DirectoryCMP"])/float64(runtimes["TokenCMP-dst1"]) - 1
	fmt.Printf("TokenCMP-dst1 speedup over DirectoryCMP on OLTP: %.1f%% (paper: ~50%%)\n", speedup*100)
	// Output:
	// DirectoryCMP   runtime 169.146us  (L1 misses 16513, persistent 0)
	// TokenCMP-dst1  runtime 117.816us  (L1 misses 16623, persistent 98)
	// PerfectL2      runtime 18.178us  (L1 misses 16400, persistent 0)
	// TokenCMP-dst1 speedup over DirectoryCMP on OLTP: 43.6% (paper: ~50%)
}
