package machine

import (
	"testing"

	"tokencmp/internal/cpu"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
	"tokencmp/internal/workload"
)

// FNV-1a 64-bit parameters.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fingerprint folds FNV-1a over every delivered message of a run, in
// delivery order: two runs that deliver the same messages in a
// different order hash differently, which the final-state pins
// (goldens, counters, digests) cannot tell apart.
type fingerprint struct {
	eng *sim.Engine
	h   uint64
}

func (f *fingerprint) observe(m *network.Message) {
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for _, w := range [...]uint64{
		uint64(f.eng.Now()), uint64(m.Src), uint64(m.Dst), uint64(m.Kind),
		uint64(m.Block), uint64(m.Tokens), flag(m.Owner), flag(m.HasData),
		m.Data, flag(m.Dirty), uint64(m.Aux), uint64(m.Proc),
	} {
		for i := 0; i < 8; i++ {
			f.h ^= w >> (8 * i) & 0xff
			f.h *= fnvPrime
		}
	}
}

// TestEventOrderFingerprint pins the delivery stream of every networked
// protocol on the three workload families at a small geometry. A change
// that keeps every figure but reorders two same-time deliveries, or
// alters any field of one message, fails here by name. Regenerate a pin
// only with a change that is meant to move simulated behaviour.
func TestEventOrderFingerprint(t *testing.T) {
	pins := map[string][3]uint64{ // protocol → locking, OLTP, barrier
		"DirectoryCMP":       {0x16442a9a7caa22e5, 0xd4ca97feaafc8e06, 0x20aa2278a8b156ce},
		"DirectoryCMP-zero":  {0xc6d66637913cebda, 0xe485628ec46602f3, 0x8aef9d8f02512c3e},
		"HammerCMP":          {0x4c5bbb0eb35036dd, 0x20fd26543b17eea9, 0xd3631db56eda7f55},
		"TokenCMP-arb0":      {0xf01abf5ddd23107d, 0x7e03bdc3214b734d, 0xb182619b3f28b296},
		"TokenCMP-dst0":      {0xa29f066d3d9fc1ea, 0x5161820850a0c5df, 0x1ab32308692244b7},
		"TokenCMP-dst4":      {0x8cdf4ca6a487627b, 0x29cf848decfbccff, 0x80ea8e4e4c5ad045},
		"TokenCMP-dst1":      {0x5858dd76b057b41f, 0x12ef956a56e7ef22, 0x31ec97d4810b7efc},
		"TokenCMP-dst1-pred": {0xee3dc5ed7a05991c, 0x12ef956a56e7ef22, 0x6ff0769b9fa72590},
		"TokenCMP-dst1-filt": {0xd0a9303e5b7fd990, 0xced4773311e6bc30, 0x644d9c57925c4516},
	}
	for _, proto := range Protocols() {
		if proto == "PerfectL2" {
			continue // no interconnect
		}
		for w, name := range [...]string{"locking", "OLTP", "barrier"} {
			t.Run(proto+"/"+name, func(t *testing.T) {
				m, err := New(smallCfg(proto))
				if err != nil {
					t.Fatal(err)
				}
				procs := m.Cfg.Geom.TotalProcs()
				var progs []cpu.Program
				switch name {
				case "locking":
					lc := workload.DefaultLocking(4)
					lc.Acquires = 12
					progs, _ = workload.LockingPrograms(lc, procs, 1)
				case "OLTP":
					params := workload.OLTP()
					params.TxnsPerProc = 4
					progs, _ = workload.CommercialPrograms(params, procs, 1)
				case "barrier":
					bc := workload.DefaultBarrier(procs, sim.NS(500))
					bc.Iterations = 5
					progs, _ = workload.BarrierPrograms(bc, 1)
				}
				fp := &fingerprint{eng: m.Eng, h: fnvOffset}
				m.net.Monitor = fp.observe
				if _, err := m.Run(progs, 30_000_000); err != nil {
					t.Fatal(err)
				}
				if want := pins[proto][w]; fp.h != want {
					t.Errorf("fingerprint = %#016x, want %#016x", fp.h, want)
				}
			})
		}
	}
}
