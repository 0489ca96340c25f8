package network

import (
	"math"
	"math/rand"
	"testing"

	"tokencmp/internal/counters"
	"tokencmp/internal/sim"
	"tokencmp/internal/topo"
)

// faultNet builds a 2-CMP network with the given fault config, a kind
// table whose one kind, kind 0, has fault class cls, and wired counters.
func faultNet(t *testing.T, fc FaultConfig, cls FaultClass) (*sim.Engine, *Network, topo.Geometry, map[topo.NodeID]*sink, *counters.Set) {
	t.Helper()
	eng := sim.NewEngine()
	g := topo.NewGeometry(2, 2, 1)
	cfg := Default()
	cfg.Faults = fc
	n := New(eng, g, cfg)
	n.Kinds = Kinds{{Name: "Msg", Fault: cls}}
	cs := counters.NewSet()
	n.WireCounters(cs)
	sinks := map[topo.NodeID]*sink{}
	for _, id := range g.AllNodes() {
		s := &sink{eng: eng}
		sinks[id] = s
		n.Attach(id, s)
	}
	return eng, n, g, sinks, cs
}

// TestZeroFaultConfigIsInert pins the byte-identity contract: a fault
// config with a seed but every knob at zero must not change a single
// delivery time relative to a network built without one.
func TestZeroFaultConfigIsInert(t *testing.T) {
	engA, nA, g, sinksA := testNet(t)
	engB, nB, _, sinksB, _ := faultNet(t, FaultConfig{Seed: 99}, FaultDroppable)
	for i := 0; i < 6; i++ {
		mA := Message{Src: g.L1DNode(0, 0), Dst: g.L1DNode(1, 0), Aux: int32(i), HasData: i%2 == 0}
		mB := mA
		nA.SendNew(mA)
		nB.SendNew(mB)
	}
	engA.Run(0)
	engB.Run(0)
	dst := g.L1DNode(1, 0)
	a, b := sinksA[dst], sinksB[dst]
	if len(a.at) != len(b.at) {
		t.Fatalf("deliveries: %d with zero faults vs %d without", len(b.at), len(a.at))
	}
	for i := range a.at {
		if a.at[i] != b.at[i] || a.got[i].Aux != b.got[i].Aux {
			t.Errorf("delivery %d: %v/%d with zero faults vs %v/%d without",
				i, b.at[i], b.got[i].Aux, a.at[i], a.got[i].Aux)
		}
	}
}

// TestDroppableDropAccounting: a dropped monitored message must unwind
// the per-block token tallies exactly as a delivery would, and leave no
// event behind — the conservation auditor may never see tokens stuck
// on a wire that already lost them.
func TestDroppableDropAccounting(t *testing.T) {
	eng, n, g, sinks, cs := faultNet(t, FaultConfig{Seed: 1, Drop: 1.0}, FaultDroppable)
	n.SendNew(Message{Src: g.L1DNode(0, 0), Dst: g.L1DNode(0, 1), Block: 7, Tokens: 3, Owner: true, HasData: true})
	if c := inFlight(n, 7); c != (blockCount{3, 1}) {
		t.Fatalf("pre-drop in-flight = %d/%d, want 3/1", c.tokens, c.owners)
	}
	eng.Run(0)
	if got := len(sinks[g.L1DNode(0, 1)].got); got != 0 {
		t.Errorf("delivered %d messages with drop=1.0, want 0", got)
	}
	if c := inFlight(n, 7); eng.Pending() != 0 || c != (blockCount{}) {
		t.Errorf("post-drop accounting: pending=%d tokens=%d owners=%d, want all 0",
			eng.Pending(), c.tokens, c.owners)
	}
	if cs.Value(counters.NetDropped) != 1 {
		t.Errorf("net.dropped = %d, want 1", cs.Value(counters.NetDropped))
	}
}

// TestRetxDropHasNoAuditGap is the satellite regression for the
// exempt/retransmit path: drop a token-carrying message classed
// FaultRetx and assert that at every inter-event instant the tokens are
// either delivered or accounted in flight — the shim re-sends inside
// the drop event, so the audit must balance after every single event.
func TestRetxDropHasNoAuditGap(t *testing.T) {
	eng, n, g, sinks, cs := faultNet(t, FaultConfig{Seed: 1, Drop: 0.9}, FaultRetx)
	dst := g.L1DNode(0, 1)
	n.SendNew(Message{Src: g.L1DNode(0, 0), Dst: dst, Block: 7, Tokens: 5, Owner: true, HasData: true})
	for eng.Step() {
		held := 0
		for _, m := range sinks[dst].got {
			held += int(m.Tokens)
		}
		if wire := int(inFlight(n, 7).tokens); held+wire != 5 {
			t.Fatalf("at %v: delivered %d + in-flight %d tokens != 5 (audit gap)",
				eng.Now(), held, wire)
		}
	}
	if got := len(sinks[dst].got); got != 1 {
		t.Fatalf("delivered %d times, want exactly 1", got)
	}
	if cs.Value(counters.NetDropped) == 0 || cs.Value(counters.NetRetx) == 0 {
		t.Fatalf("dropped=%d retx=%d, want both > 0 (seed 1 at drop=0.9 must drop at least once)",
			cs.Value(counters.NetDropped), cs.Value(counters.NetRetx))
	}
	if cs.Value(counters.NetDropped) != cs.Value(counters.NetRetx) {
		t.Errorf("dropped=%d != retx=%d: every retx-class drop must retransmit",
			cs.Value(counters.NetDropped), cs.Value(counters.NetRetx))
	}
	if c := inFlight(n, 7); eng.Pending() != 0 || c != (blockCount{}) {
		t.Errorf("post-run accounting: pending=%d tokens=%d owners=%d, want all 0",
			eng.Pending(), c.tokens, c.owners)
	}
}

// TestDuplicationDeliversTwice: dup=1.0 on a token-free droppable
// message yields exactly two deliveries (a duplicate never
// re-duplicates) and one net.dup event.
func TestDuplicationDeliversTwice(t *testing.T) {
	eng, n, g, sinks, cs := faultNet(t, FaultConfig{Seed: 1, Dup: 1.0}, FaultDroppable)
	dst := g.L1DNode(0, 1)
	n.SendNew(Message{Src: g.L1DNode(0, 0), Dst: dst, Aux: 42})
	eng.Run(0)
	if got := len(sinks[dst].got); got != 2 {
		t.Fatalf("delivered %d times with dup=1.0, want 2", got)
	}
	for i, m := range sinks[dst].got {
		if m.Aux != 42 {
			t.Errorf("delivery %d: Aux=%d, want 42", i, m.Aux)
		}
	}
	if cs.Value(counters.NetDup) != 1 {
		t.Errorf("net.dup = %d, want 1", cs.Value(counters.NetDup))
	}
}

// TestDuplicationNeverCopiesTokens: token- or data-carrying messages
// are exempt from duplication even in a droppable class — a duplicated
// token would break conservation with no receiver-side dedup to absorb
// it.
func TestDuplicationNeverCopiesTokens(t *testing.T) {
	eng, n, g, sinks, _ := faultNet(t, FaultConfig{Seed: 1, Dup: 1.0}, FaultDroppable)
	dst := g.L1DNode(0, 1)
	n.SendNew(Message{Src: g.L1DNode(0, 0), Dst: dst, Block: 3, Tokens: 1})
	eng.Run(0)
	if got := len(sinks[dst].got); got != 1 {
		t.Fatalf("token-carrying message delivered %d times, want 1", got)
	}
}

// TestReorderViolatesPerLinkFIFO: the reorder knob must be able to do
// what jitter alone cannot — deliver same-link messages out of send
// order.
func TestReorderViolatesPerLinkFIFO(t *testing.T) {
	eng, n, g, sinks, cs := faultNet(t, FaultConfig{Seed: 3, Reorder: 1.0}, FaultDroppable)
	dst := g.L2Node(0, 0)
	for i := 0; i < 8; i++ {
		n.SendNew(Message{Src: g.L1DNode(0, 0), Dst: dst, Aux: int32(i)})
	}
	eng.Run(0)
	if got := len(sinks[dst].got); got != 8 {
		t.Fatalf("delivered %d messages, want 8 (reorder must not lose)", got)
	}
	inOrder := true
	for i, m := range sinks[dst].got {
		if int(m.Aux) != i {
			inOrder = false
		}
	}
	if inOrder {
		t.Error("reorder=1.0 over an 8ns window delivered all 8 messages in send order (seed 3)")
	}
	if cs.Value(counters.NetReordered) != 8 {
		t.Errorf("net.reordered = %d, want 8", cs.Value(counters.NetReordered))
	}
}

// TestFaultDelaysAreFourLinkLatencies pins the two delays the injector
// derives from the link class: a reordered message is held back a
// uniform draw from [0, 4x latency], and a dropped retransmit-class
// message is re-sent 4x latency after its would-be arrival.
func TestFaultDelaysAreFourLinkLatencies(t *testing.T) {
	g := topo.NewGeometry(2, 2, 1)
	src := g.L1DNode(0, 0)
	for _, tc := range []struct {
		name string
		dst  topo.NodeID
		lp   LinkParams
	}{
		{"on-chip", g.L1DNode(0, 1), Default().OnChip},
		{"off-chip", g.L1DNode(1, 0), Default().OffChip},
		{"memory", g.MemNode(0), Default().OffChip},
	} {
		ser, lat := tc.lp.serialization(ControlSize), tc.lp.Latency

		// Reorder: replay the injector's two draws, the reorder coin
		// and the hold.
		const seed = 11
		eng, n, _, sinks, _ := faultNet(t, FaultConfig{Seed: seed, Reorder: 1}, FaultDroppable)
		n.SendNew(Message{Src: src, Dst: tc.dst})
		eng.Run(0)
		rng := rand.New(rand.NewSource(seed))
		rng.Float64()
		want := ser + lat + sim.Time(rng.Int63n(int64(4*lat)+1))
		if at := sinks[tc.dst].at; len(at) != 1 || at[0] != want {
			t.Errorf("%s: reordered message delivered at %v, want once at %v", tc.name, at, want)
		}

		// Retransmit: under Drop=1 every resend departs 4x latency
		// after the drop and is dropped again.
		eng, n, _, _, _ = faultNet(t, FaultConfig{Seed: 1, Drop: 1}, FaultRetx)
		var drops []sim.Time
		n.OnDrop = func(*Message) { drops = append(drops, eng.Now()) }
		n.SendNew(Message{Src: src, Dst: tc.dst})
		for len(drops) < 3 && eng.Step() {
		}
		want = ser + lat
		for i, at := range drops {
			if at != want {
				t.Errorf("%s: drop %d at %v, want %v", tc.name, i, at, want)
			}
			want += 4*lat + ser + lat
		}
		if len(drops) != 3 {
			t.Errorf("%s: %d drops, want 3", tc.name, len(drops))
		}
	}
}

// TestJitterPreservesPerLinkFIFO: jitter varies latency but is clamped
// to per-link FIFO, so protocols without recovery machinery (protected
// class) still see ordered links.
func TestJitterPreservesPerLinkFIFO(t *testing.T) {
	eng, n, g, sinks, cs := faultNet(t, FaultConfig{Seed: 1, Jitter: sim.NS(100)}, FaultProtected)
	dst := g.L2Node(0, 0)
	for i := 0; i < 10; i++ {
		n.SendNew(Message{Src: g.L1DNode(0, 0), Dst: dst, Aux: int32(i)})
	}
	eng.Run(0)
	if got := len(sinks[dst].got); got != 10 {
		t.Fatalf("delivered %d messages, want 10", got)
	}
	for i, m := range sinks[dst].got {
		if int(m.Aux) != i {
			t.Fatalf("jitter reordered a link: %d delivered at position %d", m.Aux, i)
		}
	}
	if cs.Value(counters.NetReordered) != 0 || cs.Value(counters.NetDropped) != 0 {
		t.Errorf("jitter-only run counted reordered=%d dropped=%d, want 0/0",
			cs.Value(counters.NetReordered), cs.Value(counters.NetDropped))
	}
}

// TestProtectedClassIsExempt: with no kind table (every kind
// protected), drop and dup knobs are honest no-ops.
func TestProtectedClassIsExempt(t *testing.T) {
	eng, n, g, sinks, cs := faultNet(t, FaultConfig{Seed: 1, Drop: 1.0, Dup: 1.0, Reorder: 1.0}, FaultProtected)
	n.Kinds = nil
	dst := g.L1DNode(0, 1)
	for i := 0; i < 5; i++ {
		n.SendNew(Message{Src: g.L1DNode(0, 0), Dst: dst, Aux: int32(i)})
	}
	eng.Run(0)
	if got := len(sinks[dst].got); got != 5 {
		t.Fatalf("delivered %d of 5 protected messages under drop=1.0", got)
	}
	if cs.Value(counters.NetDropped) != 0 || cs.Value(counters.NetDup) != 0 || cs.Value(counters.NetReordered) != 0 {
		t.Errorf("protected traffic counted faults: dropped=%d dup=%d reordered=%d",
			cs.Value(counters.NetDropped), cs.Value(counters.NetDup), cs.Value(counters.NetReordered))
	}
}

// TestFaultDeterminism: identical (seed, plan) replays an identical
// delivery sequence; a different seed diverges.
func TestFaultDeterminism(t *testing.T) {
	runOnce := func(seed int64) ([]sim.Time, []int) {
		fc := FaultConfig{Seed: seed, Drop: 0.3, Dup: 0.2, Reorder: 0.2, Jitter: sim.NS(25)}
		eng, n, g, sinks, _ := faultNet(t, fc, FaultDroppable)
		for i := 0; i < 20; i++ {
			n.SendNew(Message{Src: g.L1DNode(0, 0), Dst: g.L1DNode(1, 0), Aux: int32(i)})
		}
		eng.Run(0)
		s := sinks[g.L1DNode(1, 0)]
		order := make([]int, len(s.got))
		for i, m := range s.got {
			order[i] = int(m.Aux)
		}
		return s.at, order
	}
	atA, orderA := runOnce(5)
	atB, orderB := runOnce(5)
	if len(atA) != len(atB) {
		t.Fatalf("same seed delivered %d vs %d messages", len(atA), len(atB))
	}
	for i := range atA {
		if atA[i] != atB[i] || orderA[i] != orderB[i] {
			t.Fatalf("same seed diverged at delivery %d: %v/%d vs %v/%d",
				i, atA[i], orderA[i], atB[i], orderB[i])
		}
	}
	atC, orderC := runOnce(6)
	same := len(atA) == len(atC)
	if same {
		for i := range atA {
			if atA[i] != atC[i] || orderA[i] != orderC[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("seeds 5 and 6 produced identical runs (fault PRNG ignoring the seed?)")
	}
}

// TestFaultConfigValidate checks the plan's ranges: drop in [0, 1), dup
// and reorder in [0, 1], jitter not negative, and no NaN. The jitter's
// upper bound is experiments.MaxJitter (see TestSpecValidate there).
func TestFaultConfigValidate(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		fc FaultConfig
		ok bool
	}{
		{FaultConfig{Seed: 1}, true},
		{FaultConfig{Seed: 9, Drop: 0.99, Dup: 1, Reorder: 1, Jitter: sim.NS(3)}, true},
		{FaultConfig{Drop: 1}, false},
		{FaultConfig{Drop: -0.5}, false},
		{FaultConfig{Drop: nan}, false},
		{FaultConfig{Dup: 1.5}, false},
		{FaultConfig{Dup: -0.1}, false},
		{FaultConfig{Dup: nan}, false},
		{FaultConfig{Reorder: 7}, false},
		{FaultConfig{Reorder: -1}, false},
		{FaultConfig{Reorder: nan}, false},
		{FaultConfig{Jitter: sim.NS(-1)}, false},
	} {
		if err := tc.fc.Validate(); (err == nil) != tc.ok {
			t.Errorf("%+v: Validate = %v, want ok=%v", tc.fc, err, tc.ok)
		}
	}
}
