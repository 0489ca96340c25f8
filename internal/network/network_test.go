package network

import (
	"testing"

	"tokencmp/internal/mem"
	"tokencmp/internal/sim"
	"tokencmp/internal/stats"
	"tokencmp/internal/topo"
)

type sink struct {
	got []Message // copied: delivered messages are reclaimed after Recv
	at  []sim.Time
	eng *sim.Engine
}

func (s *sink) Recv(m *Message) {
	s.got = append(s.got, *m)
	s.at = append(s.at, s.eng.Now())
}

func testNet(t *testing.T) (*sim.Engine, *Network, topo.Geometry, map[topo.NodeID]*sink) {
	t.Helper()
	eng := sim.NewEngine()
	g := topo.NewGeometry(2, 2, 1)
	n := New(eng, g, Default())
	sinks := map[topo.NodeID]*sink{}
	for _, id := range g.AllNodes() {
		s := &sink{eng: eng}
		sinks[id] = s
		n.Attach(id, s)
	}
	return eng, n, g, sinks
}

func TestOnChipLatency(t *testing.T) {
	eng, n, g, sinks := testNet(t)
	src, dst := g.L1DNode(0, 0), g.L1DNode(0, 1)
	n.SendNew(Message{Src: src, Dst: dst})
	eng.Run(0)
	// 8 bytes at 64 B/ns = 0.125ns serialization + 2ns latency.
	want := 125*sim.Picosecond + sim.NS(2)
	if sinks[dst].at[0] != want {
		t.Errorf("delivery at %v, want %v", sinks[dst].at[0], want)
	}
}

func TestOffChipLatency(t *testing.T) {
	eng, n, g, sinks := testNet(t)
	src, dst := g.L1DNode(0, 0), g.L1DNode(1, 0)
	n.SendNew(Message{Src: src, Dst: dst})
	eng.Run(0)
	// 8 bytes at 16 B/ns = 0.5ns + 20ns latency.
	want := 500*sim.Picosecond + sim.NS(20)
	if sinks[dst].at[0] != want {
		t.Errorf("delivery at %v, want %v", sinks[dst].at[0], want)
	}
}

func TestMemoryLinksAreOffChip(t *testing.T) {
	eng, n, g, sinks := testNet(t)
	src, dst := g.L1DNode(0, 0), g.MemNode(0) // same CMP, but memory is off-chip
	n.SendNew(Message{Src: src, Dst: dst})
	eng.Run(0)
	if sinks[dst].at[0] < sim.NS(20) {
		t.Errorf("memory delivery at %v, want >= 20ns", sinks[dst].at[0])
	}
}

func TestBandwidthSerialization(t *testing.T) {
	eng, n, g, sinks := testNet(t)
	src, dst := g.L1DNode(0, 0), g.L1DNode(0, 1)
	// Two 72-byte data messages on one link: the second serializes
	// behind the first (1.125ns each at 64 B/ns).
	n.SendNew(Message{Src: src, Dst: dst, HasData: true})
	n.SendNew(Message{Src: src, Dst: dst, HasData: true})
	eng.Run(0)
	d := sinks[dst].at[1] - sinks[dst].at[0]
	if want := 1125 * sim.Picosecond; d != want {
		t.Errorf("serialization gap = %v, want %v", d, want)
	}
}

func TestPerLinkFIFO(t *testing.T) {
	eng, n, g, sinks := testNet(t)
	src, dst := g.L1DNode(0, 0), g.L2Node(0, 0)
	for i := 0; i < 5; i++ {
		n.SendNew(Message{Src: src, Dst: dst, Aux: int32(i)})
	}
	eng.Run(0)
	for i, m := range sinks[dst].got {
		if int(m.Aux) != i {
			t.Fatalf("link reordered messages: %d at position %d", m.Aux, i)
		}
	}
}

// TestDefaultSizes: a message's wire size follows HasData alone.
func TestDefaultSizes(t *testing.T) {
	eng, n, g, _ := testNet(t)
	n.Kinds = Kinds{{Name: "Req", Class: stats.Request}}
	src, dst := g.L1DNode(0, 0), g.L1DNode(0, 1)
	n.SendNew(Message{Src: src, Dst: dst})                // control
	n.SendNew(Message{Src: src, Dst: dst, HasData: true}) // data
	eng.Run(0)
	ctrl, data := n.Traffic.Bytes[stats.IntraCMP][stats.Request], n.Traffic.Bytes[stats.IntraCMP][stats.ResponseData]
	if ctrl != ControlSize || data != DataSize {
		t.Errorf("sizes = %d, %d; want %d, %d", ctrl, data, ControlSize, DataSize)
	}
}

// TestKindTableClasses: a message's Figure 7 class is its kind's class,
// except that a data carrier counts as Writeback Data if that class is
// Writeback Control and as Response Data otherwise. A kind the table
// does not list, and every kind on a network without a table, counts
// as class 0.
func TestKindTableClasses(t *testing.T) {
	const kReq, kWb, kUnlisted = 0, 1, 7
	for _, tc := range []struct {
		kinds   Kinds
		kind    int32
		hasData bool
		want    stats.TrafficClass
	}{
		{Kinds{kReq: {Class: stats.Request}}, kReq, false, stats.Request},
		{Kinds{kReq: {Class: stats.Request}}, kReq, true, stats.ResponseData},
		{Kinds{kWb: {Class: stats.WritebackControl}}, kWb, false, stats.WritebackControl},
		{Kinds{kWb: {Class: stats.WritebackControl}}, kWb, true, stats.WritebackData},
		{Kinds{kReq: {Class: stats.Request}}, kUnlisted, false, 0},
		{nil, kWb, false, 0},
	} {
		eng, n, g, _ := testNet(t)
		n.Kinds = tc.kinds
		n.SendNew(Message{Src: g.L1DNode(0, 0), Dst: g.L1DNode(0, 1), Kind: tc.kind, HasData: tc.hasData})
		eng.Run(0)
		if got := n.Traffic.Messages[stats.IntraCMP][tc.want]; got != 1 {
			t.Errorf("kind %d (data %v) in table %v: %d messages counted as %v, want 1",
				tc.kind, tc.hasData, tc.kinds, got, tc.want)
		}
	}
	if got, want := (Kinds{kWb: {Name: "Wb"}}).Name(kWb), "Wb"; got != want {
		t.Errorf("Name(%d) = %q, want %q", kWb, got, want)
	}
	if got, want := (Kinds{kWb: {Name: "Wb"}}).Name(kReq), "kind(0)"; got != want {
		t.Errorf("unnamed Name(%d) = %q, want %q", kReq, got, want)
	}
}

func TestTrafficAccounting(t *testing.T) {
	eng, n, g, _ := testNet(t)
	n.Kinds = Kinds{{Name: "Req", Class: stats.Request}}
	// On-chip cache-to-cache: intra only.
	n.SendNew(Message{Src: g.L1DNode(0, 0), Dst: g.L1DNode(0, 1)})
	// Cross-chip cache-to-cache: inter once + intra on both chips.
	n.SendNew(Message{Src: g.L1DNode(0, 0), Dst: g.L1DNode(1, 0)})
	// Cache-to-memory: inter + source-chip intra only.
	n.SendNew(Message{Src: g.L1DNode(0, 0), Dst: g.MemNode(0)})
	eng.Run(0)
	if got := n.Traffic.Bytes[stats.IntraCMP][stats.Request]; got != 8+16+8 {
		t.Errorf("intra bytes = %d, want 32", got)
	}
	if got := n.Traffic.Bytes[stats.InterCMP][stats.Request]; got != 16 {
		t.Errorf("inter bytes = %d, want 16", got)
	}
}

func TestBroadcastSkipsSource(t *testing.T) {
	eng, n, g, sinks := testNet(t)
	src := g.L1DNode(0, 0)
	tmpl := &Message{Src: src, Block: 1}
	n.Broadcast(tmpl, g.AllNodes())
	eng.Run(0)
	if len(sinks[src].got) != 0 {
		t.Error("broadcast delivered to source")
	}
	total := 0
	for _, s := range sinks {
		total += len(s.got)
	}
	if total != g.NumNodes()-1 {
		t.Errorf("deliveries = %d, want %d", total, g.NumNodes()-1)
	}
}

// inFlight reads block b's undelivered tokens and owner tokens the way
// the conservation audit does, through EachInFlight.
func inFlight(n *Network, b mem.Block) (c blockCount) {
	n.EachInFlight(func(x mem.Block, tokens, owners int) {
		if x == b {
			c = blockCount{int32(tokens), int32(owners)}
		}
	})
	return c
}

func TestTokenInFlightAccounting(t *testing.T) {
	eng, n, g, _ := testNet(t)
	n.SendNew(Message{Src: g.L1DNode(0, 0), Dst: g.L1DNode(0, 1), Block: 9, Tokens: 5, Owner: true, HasData: true})
	if c := inFlight(n, 9); c != (blockCount{5, 1}) {
		t.Fatalf("in-flight = %d/%d, want 5/1", c.tokens, c.owners)
	}
	blocks := 0
	n.EachInFlight(func(b mem.Block, tokens, owners int) {
		blocks++
		if b != 9 || tokens != 5 || owners != 1 {
			t.Errorf("EachInFlight reported b=%v tokens=%d owners=%d, want 9/5/1", b, tokens, owners)
		}
	})
	if blocks != 1 {
		t.Errorf("EachInFlight visited %d blocks, want 1", blocks)
	}
	eng.Run(0)
	if inFlight(n, 9) != (blockCount{}) {
		t.Error("in-flight counters not cleared after delivery")
	}
	n.EachInFlight(func(b mem.Block, tokens, owners int) {
		t.Errorf("EachInFlight visited %v (%d/%d) after all deliveries", b, tokens, owners)
	})
	// Commercial-workload regions sit at block ~2^31: the paged table
	// must carry far-apart blocks without materializing the gap.
	far := mem.BlockOf(0x1C_0000_0000)
	n.SendNew(Message{Src: g.L1DNode(0, 0), Dst: g.L1DNode(0, 1), Block: far, Tokens: 2, HasData: true})
	if inFlight(n, far).tokens != 2 || inFlight(n, far-1).tokens != 0 {
		t.Fatalf("far-block in-flight = %d (neighbor %d), want 2 (0)", inFlight(n, far).tokens, inFlight(n, far-1).tokens)
	}
	blocks = 0
	n.EachInFlight(func(b mem.Block, tokens, owners int) {
		blocks++
		if b != far || tokens != 2 || owners != 0 {
			t.Errorf("EachInFlight reported b=%v tokens=%d owners=%d, want %v/2/0", b, tokens, owners, far)
		}
	})
	if blocks != 1 {
		t.Errorf("EachInFlight visited %d blocks, want 1", blocks)
	}
	eng.Run(0)
	if inFlight(n, far).tokens != 0 {
		t.Error("far-block counter not cleared after delivery")
	}
}

// TestLinkTableMatchesGeometry checks the route of every directed link,
// derived from New's per-node records, against the geometry: a link
// touching a memory controller, or joining two chips, is off-chip;
// Figure 7 charges an off-chip message one intra-CMP hop per cache
// endpoint and an on-chip message one. Each link keeps one serializer
// time, and the one fault plan governs both link classes: under Drop=1
// a droppable message on any link is lost.
func TestLinkTableMatchesGeometry(t *testing.T) {
	cfg := Default()
	cfg.Faults = FaultConfig{Seed: 1, Drop: 1}
	for _, g := range []topo.Geometry{
		topo.NewGeometry(1, 1, 1),
		topo.NewGeometry(2, 2, 1),
		topo.NewGeometry(4, 4, 4),
		topo.NewGeometry(3, 2, 5),
	} {
		eng := sim.NewEngine()
		n := New(eng, g, cfg)
		n.Kinds = Kinds{{Name: "Msg", Fault: FaultDroppable}}
		if nodes := g.NumNodes(); len(n.nextFree) != nodes*nodes {
			t.Errorf("%d serializer times, want one per link (%d)", len(n.nextFree), nodes*nodes)
		}
		if nodes := g.NumNodes(); len(n.lastArrive) != nodes*nodes {
			t.Errorf("%d FIFO clamp records under faults, want one per link (%d)", len(n.lastArrive), nodes*nodes)
		}
		if clean := New(sim.NewEngine(), g, Default()); clean.lastArrive != nil {
			t.Error("fault-free network keeps FIFO clamp records")
		}
		isMem := func(id topo.NodeID) bool { return g.KindOf(id) == topo.Mem }
		delivered := &countSink{}
		dropped := map[bool]int{} // on-chip → messages lost
		for _, id := range g.AllNodes() {
			n.Attach(id, delivered)
		}
		for _, src := range g.AllNodes() {
			for _, dst := range g.AllNodes() {
				want, wantHops := cfg.OffChip, 0
				on := !isMem(src) && !isMem(dst) && g.CMPOf(src) == g.CMPOf(dst)
				if on {
					want, wantHops = cfg.OnChip, 1
				} else {
					if !isMem(src) {
						wantHops++
					}
					if !isMem(dst) {
						wantHops++
					}
				}
				lc, hops := n.route(src, dst)
				if lc.LinkParams != want || hops != wantHops {
					t.Errorf("%dx%dx%d link %v(%v)->%v(%v): params %+v hops %d, want %+v %d",
						g.CMPs, g.ProcsPerCMP, g.L2Banks, src, g.KindOf(src), dst, g.KindOf(dst),
						lc.LinkParams, hops, want, wantHops)
				}
				n.OnDrop = func(*Message) { dropped[on]++ }
				n.SendNew(Message{Src: src, Dst: dst})
				eng.Run(0)
			}
		}
		if delivered.n != 0 || dropped[true] == 0 || dropped[false] == 0 {
			t.Errorf("%dx%dx%d under Drop=1: %d delivered, %d on-chip and %d off-chip dropped; want 0 delivered and both classes dropping",
				g.CMPs, g.ProcsPerCMP, g.L2Banks, delivered.n, dropped[true], dropped[false])
		}
	}
}
