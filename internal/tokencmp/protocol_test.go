package tokencmp

import (
	"testing"

	"tokencmp/internal/counters"
	"tokencmp/internal/cpu"
	"tokencmp/internal/hier"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
	"tokencmp/internal/token"
	"tokencmp/internal/topo"
)

// fullSystem builds the paper's target geometry.
func fullSystem(t *testing.T, v Variant, mutate func(*Config)) (*sim.Engine, *System) {
	t.Helper()
	eng := sim.NewEngine()
	h := hier.Config{Geom: topo.NewGeometry(4, 4, 4)}
	cfg := DefaultConfig(v)
	if mutate != nil {
		mutate(&cfg)
	}
	return eng, NewSystem(eng, h, cfg, network.Default())
}

// doOp runs a single access to completion and returns the value.
func doOp(t *testing.T, eng *sim.Engine, port cpu.MemPort, kind cpu.AccessKind, a mem.Addr, v uint64) uint64 {
	t.Helper()
	done := false
	var out uint64
	port.Access(kind, a, v, func(val uint64) { done = true; out = val })
	if !eng.RunUntil(func() bool { return done }, 3_000_000) {
		t.Fatalf("%v %#x did not complete", kind, uint64(a))
	}
	return out
}

// TestMigratorySharingGrantsAllTokens: after a dirty writer, a reader's
// single load must leave it able to write silently (all tokens moved).
func TestMigratorySharingGrantsAllTokens(t *testing.T) {
	eng, sys := fullSystem(t, Dst1, nil)
	const addr = 0xA000
	p0, _ := sys.Ports(0)
	p5, _ := sys.Ports(5) // a different CMP
	doOp(t, eng, p0, cpu.Store, addr, 9)
	if doOp(t, eng, p5, cpu.Load, addr, 0) != 9 {
		t.Fatal("reader did not observe the writer's value")
	}
	// The reader's L1 must now hold all T tokens (migratory transfer).
	c, p := sys.Geom.ProcOf(5)
	s := sys.L1Ds[c][p].lookup(mem.BlockOf(addr))
	if s == nil || s.Tokens != sys.T || !s.Owner {
		t.Fatalf("reader state = %+v, want all %d tokens (migratory)", s, sys.T)
	}
	// Its store must therefore hit without any further miss. One
	// operation is in flight, so the system-wide l1.miss delta is this
	// L1's.
	misses := sys.Ctrs.Value(counters.L1Miss)
	doOp(t, eng, p5, cpu.Store, addr, 10)
	if sys.Ctrs.Value(counters.L1Miss) != misses {
		t.Error("store after migratory grant missed")
	}
}

// TestMigratoryDisableIsPolicyOnly: with the optimization off the reader
// gets a plain shared copy, and correctness (values, conservation) is
// unaffected — the paper's §5 modifiability argument.
func TestMigratoryDisableIsPolicyOnly(t *testing.T) {
	eng, sys := fullSystem(t, Dst1, func(c *Config) { c.DisableMigratory = true })
	const addr = 0xA000
	p0, _ := sys.Ports(0)
	p5, _ := sys.Ports(5)
	doOp(t, eng, p0, cpu.Store, addr, 9)
	if doOp(t, eng, p5, cpu.Load, addr, 0) != 9 {
		t.Fatal("reader did not observe the writer's value")
	}
	c, p := sys.Geom.ProcOf(5)
	s := sys.L1Ds[c][p].lookup(mem.BlockOf(addr))
	if s == nil || s.Tokens == sys.T {
		t.Fatalf("reader got all tokens despite DisableMigratory (state %+v)", s)
	}
	if err := sys.TokenAudit(); err != nil {
		t.Fatal(err)
	}
}

// TestCTokenExternalReadResponse: an external read served by the home
// memory hands over C tokens' worth (or everything, the E analog, when
// memory holds all), so the next request in that CMP hits locally.
func TestCTokenExternalReadResponse(t *testing.T) {
	eng, sys := fullSystem(t, Dst1, nil)
	const addr = 0xB000
	p0, _ := sys.Ports(0)
	// Cold read: memory holds all T → E-analog (everything moves).
	doOp(t, eng, p0, cpu.Load, addr, 0)
	c, p := sys.Geom.ProcOf(0)
	s := sys.L1Ds[c][p].lookup(mem.BlockOf(addr))
	if s == nil || s.Tokens != sys.T {
		t.Fatalf("cold read got %+v, want all tokens (E analog)", s)
	}
}

// TestPersistentReadLeavesReaderCopies: a persistent read must not steal
// read permission — holders keep one token each (§3.2).
func TestPersistentReadLeavesReaderCopies(t *testing.T) {
	eng, sys := fullSystem(t, Dst0, nil) // persistent-only variant
	const addr = 0xC000
	b := mem.BlockOf(addr)
	p0, _ := sys.Ports(0)
	p5, _ := sys.Ports(5)
	doOp(t, eng, p0, cpu.Store, addr, 3) // p0's L1 holds all T, dirty
	if got := doOp(t, eng, p5, cpu.Load, addr, 0); got != 3 {
		t.Fatalf("persistent read returned %d, want 3", got)
	}
	// p0 must retain a readable copy: at least one token plus data.
	c, p := sys.Geom.ProcOf(0)
	s := sys.L1Ds[c][p].lookup(b)
	if s == nil || !s.CanRead() {
		t.Fatalf("previous holder lost read permission: %+v", s)
	}
	if err := sys.TokenAudit(); err != nil {
		t.Fatal(err)
	}
}

// TestMarkingPreventsImmediateReissue: after a processor's persistent
// request completes, its own re-request for the same block defers until
// the marked wave drains, so every waiter gets served (§3.2).
func TestMarkingPreventsImmediateReissue(t *testing.T) {
	eng, sys := fullSystem(t, Dst0, nil)
	const addr = 0xD000
	order := []int{}
	n := 0
	// P0 (highest priority) repeatedly writes; P15 (lowest) writes once.
	// Without marking, P0 could starve P15 indefinitely; with it, P15's
	// single request completes between P0's rounds.
	p15, _ := sys.Ports(15)
	p15.Access(cpu.Store, addr, 100, func(uint64) { order = append(order, 15); n++ })
	p0, _ := sys.Ports(0)
	var again func(round int)
	again = func(round int) {
		p0.Access(cpu.Store, addr, uint64(round), func(uint64) {
			order = append(order, 0)
			n++
			if round < 6 {
				// Space the rounds beyond the bounded response-delay hold
				// so each one is a fresh persistent request.
				eng.ScheduleCall(2*hier.ResponseDelay, func(_, _ any) { again(round + 1) }, nil, nil)
			}
		})
	}
	again(1)
	if !eng.RunUntil(func() bool { return n == 7 }, 5_000_000) {
		t.Fatalf("starved: completions=%d order=%v", n, order)
	}
	// P15 must complete before P0's last round (no starvation).
	lastIs15 := order[len(order)-1] == 15
	if lastIs15 {
		t.Errorf("P15 completed last (%v): marking failed to prevent starvation", order)
	}
}

// TestFilterNeverFiltersPersistent: the dst1-filt variant may filter
// transient forwards but persistent requests always reach every cache.
func TestFilterNeverFiltersPersistent(t *testing.T) {
	eng, sys := fullSystem(t, Dst1Filt, nil)
	const addr = 0xE000
	p0, _ := sys.Ports(0)
	p5, _ := sys.Ports(5)
	doOp(t, eng, p0, cpu.Store, addr, 1)
	// Remote write must eventually collect every token even though the
	// remote L2's sharer mask knows nothing useful.
	doOp(t, eng, p5, cpu.Store, addr, 2)
	if got := doOp(t, eng, p0, cpu.Load, addr, 0); got != 2 {
		t.Fatalf("read %d, want 2", got)
	}
	if err := sys.TokenAudit(); err != nil {
		t.Fatal(err)
	}
}

// TestWritebackCarriesOwnerData: evicting a dirty owner line moves data
// and tokens to the L2 without any grant round trip (§5's writeback
// simplicity claim) and conserves tokens.
func TestWritebackCarriesOwnerData(t *testing.T) {
	eng := sim.NewEngine()
	h := hier.Config{Geom: topo.NewGeometry(4, 4, 4), L1Size: 4 << 10}
	sys := NewSystem(eng, h, DefaultConfig(Dst1), network.Default())
	p0, _ := sys.Ports(0)
	// Two blocks mapping to one set beyond L1 associativity force an
	// eviction: 4KB/4-way/64B = 16 sets.
	setStride := mem.Addr(16 * 64)
	base := mem.Addr(0xF0000)
	for i := 0; i < 6; i++ {
		doOp(t, eng, p0, cpu.Store, base+mem.Addr(i)*setStride, uint64(200+i))
	}
	// Everything must still be readable and conserved.
	for i := 0; i < 6; i++ {
		if got := doOp(t, eng, p0, cpu.Load, base+mem.Addr(i)*setStride, 0); got != uint64(200+i) {
			t.Fatalf("block %d read %d, want %d", i, got, 200+i)
		}
	}
	if err := sys.TokenAudit(); err != nil {
		t.Fatal(err)
	}
}

// TestTimeoutEscalatesToPersistent: with an artificially tiny timeout,
// dst1 misses must still complete via the substrate (robustness: the
// performance policy can be arbitrarily wrong without harming safety or
// liveness).
func TestTimeoutEscalatesToPersistent(t *testing.T) {
	eng, sys := fullSystem(t, Dst1, nil)
	// Shrink each estimator's initial guess and floor so timeouts
	// genuinely fire early.
	for ci := range sys.L1Ds {
		for pi := range sys.L1Ds[ci] {
			for _, est := range []*token.TimeoutEstimator{sys.L1Ds[ci][pi].est, sys.L1Is[ci][pi].est} {
				est.Initial, est.Floor = sim.Picosecond, sim.Picosecond
			}
		}
	}
	p0, _ := sys.Ports(0)
	p5, _ := sys.Ports(5)
	doOp(t, eng, p0, cpu.Store, 0x11000, 5)
	if got := doOp(t, eng, p5, cpu.Load, 0x11000, 0); got != 5 {
		t.Fatalf("read %d, want 5", got)
	}
	if persists := sys.Ctrs.Value(counters.ReqPersistent); persists == 0 {
		t.Error("tiny timeout never escalated to a persistent request")
	}
	if err := sys.TokenAudit(); err != nil {
		t.Fatal(err)
	}
}

// TestTimeoutEscalationLossSweep extends the escalation test across a
// transient-drop sweep: under 0%, 1%, 5%, and 20% loss every access
// must still complete and audit clean, and the persistent-request
// fraction must grow with the loss rate while staying bounded — the
// degradation curve the paper's robustness claim predicts (graceful
// escalation, not collapse).
func TestTimeoutEscalationLossSweep(t *testing.T) {
	drops := []float64{0, 0.01, 0.05, 0.20}
	persists := make([]uint64, len(drops))
	fractions := make([]float64, len(drops))
	for di, d := range drops {
		eng := sim.NewEngine()
		g := topo.NewGeometry(4, 4, 4)
		netCfg := network.Default()
		netCfg.Faults = network.FaultConfig{Seed: 1, Drop: d}
		sys := NewSystem(eng, hier.Config{Geom: g}, DefaultConfig(Dst1), netCfg)

		// Sequential migratory ping-pong: each processor in turn stores
		// and re-loads a small shared block set, migrating tokens across
		// CMPs on every handoff. With no concurrent contention, timeouts
		// at drop=0 are rare, so escalation growth isolates the loss
		// effect (a lost transient is the only reason to time out).
		const rounds, blocks = 6, 4
		for r := 0; r < rounds; r++ {
			for p := 0; p < g.TotalProcs(); p++ {
				port, _ := sys.Ports(p)
				addr := mem.Addr(0x2000 + (p%blocks)*64)
				want := uint64(r*1000 + p)
				doOp(t, eng, port, cpu.Store, addr, want)
				if got := doOp(t, eng, port, cpu.Load, addr, 0); got != want {
					t.Fatalf("drop=%.2f: proc %d read %d, want %d", d, p, got, want)
				}
			}
		}
		if err := sys.TokenAudit(); err != nil {
			t.Fatalf("drop=%.2f: %v", d, err)
		}
		persists[di] = sys.Ctrs.Value(counters.ReqPersistent)
		misses := sys.Ctrs.Value(counters.L1Miss)
		if misses > 0 {
			fractions[di] = float64(persists[di]) / float64(misses)
		}
		t.Logf("drop=%.2f: %d persistent requests (%.1f%% of %d misses)",
			d, persists[di], 100*fractions[di], misses)
	}
	for i := 1; i < len(drops); i++ {
		if persists[i] < persists[i-1] {
			t.Errorf("persistent requests fell from %d to %d as drop rose %.2f → %.2f",
				persists[i-1], persists[i], drops[i-1], drops[i])
		}
	}
	if persists[len(drops)-1] <= persists[0] {
		t.Errorf("20%% drop produced no more persistent requests (%d) than 0%% (%d)",
			persists[len(drops)-1], persists[0])
	}
	// Bounded: even at 20% transient loss the substrate resolves most
	// misses without collapsing into an all-persistent regime.
	if f := fractions[len(drops)-1]; f > 0.9 {
		t.Errorf("persistent fraction %.2f at 20%% drop exceeds the 0.9 bound", f)
	}
}

// TestTokenCountMatchesGeometry: T must exceed the cache count so
// persistent reads always succeed (§3.2).
func TestTokenCountMatchesGeometry(t *testing.T) {
	_, sys := fullSystem(t, Dst1, nil)
	caches := len(sys.Geom.AllCaches())
	if sys.T <= caches {
		t.Fatalf("T = %d with %d caches; persistent reads not guaranteed", sys.T, caches)
	}
	if sys.T != token.TokenCountFor(caches) {
		t.Errorf("T = %d, want %d", sys.T, token.TokenCountFor(caches))
	}
}

// TestTransientDeliveryDoesNotAllocate pins one transient request
// delivered to an L1 at zero allocations: the L1 defers the delivered
// message across its tag access and, holding no tokens, drops it.
func TestTransientDeliveryDoesNotAllocate(t *testing.T) {
	eng, sys := testSystem(t, Dst1)
	g := topo.NewGeometry(2, 2, 1)
	req := g.L1DNode(0, 0)
	transient := network.Message{Src: req, Dst: g.L1DNode(0, 1), Block: 64, Kind: kTransient, Aux: int32(token.ReqRead), Requestor: req}
	sys.Net.SendNew(transient)
	eng.Run(0)
	before := eng.Executed
	avg := testing.AllocsPerRun(100, func() {
		sys.Net.SendNew(transient)
		eng.Run(0)
	})
	if avg != 0 {
		t.Errorf("transient delivery allocates %.2f per request, want 0", avg)
	}
	// AllocsPerRun's warm-up plus 100 measured runs, each a delivery and
	// the L1's deferred handling.
	if got := eng.Executed - before; got != 2*101 {
		t.Errorf("engine executed %d events, want %d", got, 2*101)
	}
}
