package machine

import (
	"strings"
	"testing"

	"tokencmp/internal/counters"
	"tokencmp/internal/cpu"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
	"tokencmp/internal/tokencmp"
	"tokencmp/internal/workload"
)

// FNV-1a 64-bit parameters.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fingerprint folds FNV-1a over every delivered message of a run, in
// delivery order, and over every injected loss at the time it happens:
// two runs that deliver or drop the same messages in a different order
// hash differently, which the final-state pins (goldens, counters,
// digests) cannot tell apart.
type fingerprint struct {
	eng *sim.Engine
	h   uint64
}

// dropMark precedes a dropped message's fields, so a drop never hashes
// like the delivery of the same message.
const dropMark = ^uint64(0)

func (f *fingerprint) observe(m *network.Message) { f.fold(m) }

func (f *fingerprint) observeDrop(m *network.Message) {
	f.word(dropMark)
	f.fold(m)
}

func (f *fingerprint) fold(m *network.Message) {
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
		f.word(w)
	}
}

func (f *fingerprint) word(w uint64) {
	for i := 0; i < 8; i++ {
		f.h ^= w >> (8 * i) & 0xff
		f.h *= fnvPrime
	}
}

// runFingerprint runs the named workload family on m and returns the
// fingerprint of its delivery and drop stream.
func runFingerprint(t *testing.T, m *Machine, name string) uint64 {
	t.Helper()
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
	default:
		t.Fatalf("unknown workload %q", name)
	}
	fp := &fingerprint{eng: m.Eng, h: fnvOffset}
	m.net.Monitor = fp.observe
	m.net.OnDrop = fp.observeDrop
	if _, err := m.Run(progs, 30_000_000); err != nil {
		t.Fatal(err)
	}
	return fp.h
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
				h := runFingerprint(t, m, name)
				if want := pins[proto][w]; h != want {
					t.Errorf("fingerprint = %#016x, want %#016x", h, want)
				}
			})
		}
	}
}

// faultPlans are the fault configurations of the faulted fingerprint
// pins. Each enables one knob on both link classes, so a pin failure
// names the fault path that moved: jitter exercises the per-link FIFO
// clamp, reorder the clamp's bypass, and drop the loss and retransmit
// paths.
var faultPlans = [...]struct {
	name   string
	cfg    network.FaultConfig
	moved  string // counter the plan must move; "" for jitter
	tokens bool   // only the TokenCMP stacks opt traffic into this knob
}{
	{"jitter", network.FaultConfig{Seed: 7, Jitter: sim.NS(5)}, "", false},
	{"reorder", network.FaultConfig{Seed: 7, Reorder: 0.1}, counters.NetReordered, true},
	{"drop", network.FaultConfig{Seed: 7, Drop: 0.05}, counters.NetDropped, true},
}

// TestFaultedEventOrderFingerprint pins the delivery and drop stream of
// the locking workload under each fault plan: jitter, reorder and drop
// for the TokenCMP variants, and jitter for DirectoryCMP and HammerCMP,
// which opt no traffic into reorder or drop. Without faults the
// network's fault paths are never taken, so TestEventOrderFingerprint
// alone cannot see a change to them.
func TestFaultedEventOrderFingerprint(t *testing.T) {
	pins := map[string]uint64{ // protocol/plan → fingerprint
		"DirectoryCMP/jitter":        0x32b9993bafd688cb,
		"DirectoryCMP-zero/jitter":   0x1537aac219d67a3f,
		"HammerCMP/jitter":           0x6707ff6a516f018c,
		"TokenCMP-arb0/jitter":       0xca641ec683a4694f,
		"TokenCMP-arb0/reorder":      0xf01abf5ddd23107d,
		"TokenCMP-arb0/drop":         0xd862c238bcc04a43,
		"TokenCMP-dst0/jitter":       0x849e1d2aa3c4eede,
		"TokenCMP-dst0/reorder":      0xa29f066d3d9fc1ea,
		"TokenCMP-dst0/drop":         0xc66900fbf85ae83a,
		"TokenCMP-dst4/jitter":       0x4bcc9e26411c861b,
		"TokenCMP-dst4/reorder":      0xbeaaa92c54921658,
		"TokenCMP-dst4/drop":         0x364eff06bfec2b2a,
		"TokenCMP-dst1/jitter":       0x83380d812c4aed02,
		"TokenCMP-dst1/reorder":      0xbaac9d64add011cb,
		"TokenCMP-dst1/drop":         0x2e31c1486bbb1b01,
		"TokenCMP-dst1-pred/jitter":  0x14d2696bf6eb54ee,
		"TokenCMP-dst1-pred/reorder": 0xfd530c0953918193,
		"TokenCMP-dst1-pred/drop":    0x689107828d61896a,
		"TokenCMP-dst1-filt/jitter":  0x9471f4db869b7fdc,
		"TokenCMP-dst1-filt/reorder": 0x1ccd3527a76094af,
		"TokenCMP-dst1-filt/drop":    0x1f96e346e66a975b,
	}
	for _, proto := range Protocols() {
		if proto == "PerfectL2" {
			continue // no interconnect
		}
		token := strings.HasPrefix(proto, "TokenCMP")
		for _, fp := range faultPlans {
			if fp.tokens && !token {
				continue
			}
			t.Run(proto+"/"+fp.name, func(t *testing.T) {
				cfg := smallCfg(proto)
				cfg.Faults = fp.cfg
				m, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				h := runFingerprint(t, m, "locking")
				// arb0 and dst0 send no transient requests, so reorder,
				// which only droppable transients take, is a no-op there.
				if fp.moved != "" && (fp.name != "reorder" || m.Proto.(*tokencmp.System).Cfg.Variant.MaxTransients > 0) && m.Counters()[fp.moved] == 0 {
					t.Fatalf("%s moved no %s", fp.name, fp.moved)
				}
				if want, ok := pins[proto+"/"+fp.name]; !ok || h != want {
					t.Errorf("fingerprint = %#016x, want %#016x", h, want)
				}
			})
		}
	}
}
