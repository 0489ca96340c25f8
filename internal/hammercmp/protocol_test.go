package hammercmp

import (
	"testing"

	"tokencmp/internal/counters"
	"tokencmp/internal/cpu"
	"tokencmp/internal/hier"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
	"tokencmp/internal/topo"
	"tokencmp/internal/workload"
)

// build wires a small HammerCMP system with tiny caches so evictions
// and writeback races actually occur.
func build(t *testing.T, g topo.Geometry) *System {
	t.Helper()
	eng := sim.NewEngine()
	h := hier.Config{Geom: g, L1Size: 4 << 10, L2BankSize: 16 << 10}
	return NewSystem(eng, h, network.Default())
}

// runProgs drives one program per processor to completion.
func runProgs(t *testing.T, s *System, progs []cpu.Program) {
	t.Helper()
	running := len(progs)
	for i := range progs {
		d, in := s.Ports(i)
		p := &cpu.Processor{Eng: s.Eng, Data: d, Inst: in, Prog: progs[i], Running: &running}
		p.Start()
	}
	ok := s.Eng.RunUntil(func() bool { return running == 0 }, 50_000_000)
	if !ok {
		t.Fatalf("system did not finish: events=%d pending=%d now=%v",
			s.Eng.Executed, s.Eng.Pending(), s.Eng.Now())
	}
}

func TestLockingMutualExclusion(t *testing.T) {
	g := topo.NewGeometry(2, 2, 1)
	s := build(t, g)
	lc := workload.DefaultLocking(4)
	lc.Acquires = 16
	progs, mon := workload.LockingPrograms(lc, g.TotalProcs(), 1)
	runProgs(t, s, progs)
	if len(mon.Violations) > 0 {
		t.Fatalf("mutual exclusion violated: %v", mon.Violations[0])
	}
	if got, want := mon.Acquires, uint64(4*16); got != want {
		t.Errorf("acquires = %d, want %d", got, want)
	}
}

// TestQuiescence asserts every message has drained (writeback chains
// included) once programs finish and the engine runs dry, and that no
// home is left with a busy block or a queued request for any block it
// was sent.
func TestQuiescence(t *testing.T) {
	g := topo.NewGeometry(2, 2, 1)
	s := build(t, g)
	homed := map[mem.Block]bool{}
	s.Net.Monitor = func(m *network.Message) {
		if g.KindOf(m.Dst) == topo.Mem {
			homed[m.Block] = true
		}
	}
	lc := workload.DefaultLocking(2)
	lc.Acquires = 8
	progs, _ := workload.LockingPrograms(lc, g.TotalProcs(), 3)
	runProgs(t, s, progs)
	s.Eng.Run(10_000_000) // drain in-flight writebacks
	if n := s.Eng.Pending(); n != 0 {
		t.Errorf("network not quiescent: %d events pending", n)
	}
	if len(homed) == 0 {
		t.Fatal("no message reached a home")
	}
	for b := range homed {
		m := s.Mems[g.CMPOf(g.HomeMem(b))]
		if m.ser.Busy(b) != nil {
			t.Errorf("home %v left %v busy", m.id, b)
		}
		if q, ok := m.ser.Pop(b); ok {
			t.Errorf("home %v left %v queued for %v", m.id, &q, b)
		}
	}
}

// TestBroadcastFanIn asserts every miss pays the Hammer fan-in: one
// response per cache plus the memory response, visible as probe
// traffic proportional to misses. startBroadcast is the only site of
// both probe.sent and mem.read (one speculative read per GetS/GetM), so
// mem.read counts the broadcast requests.
func TestBroadcastFanIn(t *testing.T) {
	g := topo.NewGeometry(2, 2, 1)
	s := build(t, g)
	lc := workload.DefaultLocking(8)
	lc.Acquires = 8
	progs, _ := workload.LockingPrograms(lc, g.TotalProcs(), 1)
	runProgs(t, s, progs)

	probes := s.Ctrs.Value(counters.ProbeSent)
	gets := s.Ctrs.Value(counters.MemRead)
	wantPerMiss := uint64(len(s.caches) - 1)
	if probes != gets*wantPerMiss {
		t.Errorf("probes = %d, want %d (%d requests × %d peers)",
			probes, gets*wantPerMiss, gets, wantPerMiss)
	}
}

// TestDeterminism asserts two identical runs take identical simulated
// time.
func TestDeterminism(t *testing.T) {
	run := func() sim.Time {
		g := topo.NewGeometry(2, 2, 2)
		s := build(t, g)
		lc := workload.DefaultLocking(4)
		lc.Acquires = 10
		progs, _ := workload.LockingPrograms(lc, g.TotalProcs(), 7)
		runProgs(t, s, progs)
		return s.Eng.Now()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic runtimes: %v vs %v", a, b)
	}
}

// TestSingleCMP exercises the degenerate one-chip geometry (all probes
// stay on one CMP except the memory hop).
func TestSingleCMP(t *testing.T) {
	g := topo.NewGeometry(1, 4, 2)
	s := build(t, g)
	lc := workload.DefaultLocking(2)
	lc.Acquires = 8
	progs, mon := workload.LockingPrograms(lc, g.TotalProcs(), 1)
	runProgs(t, s, progs)
	if len(mon.Violations) > 0 {
		t.Fatalf("mutual exclusion violated: %v", mon.Violations[0])
	}
}

// absorb drops every delivered message.
type absorb struct{}

func (absorb) Recv(*network.Message) {}

// TestBroadcastMissDoesNotAllocate pins the home's half of a
// steady-state miss — 47 probes copied from one template plus the
// speculative DRAM reply, all delivered — at zero allocations on the
// Table 3 machine.
func TestBroadcastMissDoesNotAllocate(t *testing.T) {
	g := topo.NewGeometry(4, 4, 4)
	s := NewSystem(sim.NewEngine(), hier.Config{Geom: g}, network.Default())
	for _, id := range s.caches {
		s.Net.Attach(id, absorb{})
	}
	home := s.Mems[0]
	req := &network.Message{Src: home.id, Block: 64, Kind: kGetM, Requestor: g.L1DNode(1, 2)}
	home.startBroadcast(req)
	s.Eng.Run(0)
	avg := testing.AllocsPerRun(100, func() {
		home.startBroadcast(req)
		s.Eng.Run(0)
	})
	if avg != 0 {
		t.Errorf("broadcast miss allocates %.2f per miss, want 0", avg)
	}
	// One warm-up miss, AllocsPerRun's own warm-up, then 100 measured.
	if got, want := s.Ctrs.Value(counters.ProbeSent), uint64(102*(len(s.caches)-1)); got != want {
		t.Errorf("probe.sent = %d, want %d", got, want)
	}
}

// TestProbeDeliveryDoesNotAllocate pins one probe delivered to an L1 at
// zero allocations: the L1 defers the delivered message across its tag
// access, misses, and acks the requester.
func TestProbeDeliveryDoesNotAllocate(t *testing.T) {
	g := topo.NewGeometry(2, 2, 1)
	s := build(t, g)
	req := g.L1DNode(1, 0)
	s.Net.Attach(req, absorb{})
	probe := network.Message{Src: g.HomeMem(64), Dst: g.L1DNode(0, 0), Block: 64, Kind: kProbeS, Requestor: req}
	s.Net.SendNew(probe)
	s.Eng.Run(0)
	avg := testing.AllocsPerRun(100, func() {
		s.Net.SendNew(probe)
		s.Eng.Run(0)
	})
	if avg != 0 {
		t.Errorf("probe delivery allocates %.2f per probe, want 0", avg)
	}
	// One warm-up probe, AllocsPerRun's own warm-up, then 100 measured.
	if got := s.Ctrs.Value(counters.ProbeAck); got != 102 {
		t.Errorf("probe.ack = %d, want 102", got)
	}
}

// TestL1MissDoesNotAllocate pins the L1 side of a steady-state miss at
// zero allocations: the access waits out the tag access, misses,
// reserves its line and sends the request, which the home absorbs.
func TestL1MissDoesNotAllocate(t *testing.T) {
	g := topo.NewGeometry(2, 2, 1)
	s := build(t, g)
	l1, addr := s.L1Ds[0][1], mem.Addr(0x4000)
	s.Net.Attach(g.HomeMem(mem.BlockOf(addr)), absorb{})
	done := func(uint64) {}
	miss := func() {
		l1.Access(cpu.Store, addr, 1, done)
		s.Eng.Run(0)
		l1.Finish() // drop the miss the absorbed request left outstanding
	}
	miss()
	if avg := testing.AllocsPerRun(100, miss); avg != 0 {
		t.Errorf("L1 miss allocates %.2f per miss, want 0", avg)
	}
	// One warm-up miss, AllocsPerRun's own warm-up, then 100 measured.
	if got := s.Ctrs.Value(counters.L1Miss); got != 102 {
		t.Errorf("l1.miss = %d, want 102", got)
	}
}
