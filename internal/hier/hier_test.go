package hier

import (
	"fmt"
	"reflect"
	"testing"

	"tokencmp/internal/cache"
	"tokencmp/internal/counters"
	"tokencmp/internal/cpu"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
	"tokencmp/internal/topo"
)

func TestParamsResolveTable3Sizes(t *testing.T) {
	g := topo.NewGeometry(2, 2, 1)
	for _, tc := range []struct {
		cfg    Config
		l1, l2 cache.Params
	}{
		{Config{Geom: g},
			cache.Params{SizeBytes: 128 << 10, Ways: 4, BlockSize: mem.BlockSize},
			cache.Params{SizeBytes: 2 << 20, Ways: 4, BlockSize: mem.BlockSize}},
		{Config{Geom: g, L1Size: 4 << 10},
			cache.Params{SizeBytes: 4 << 10, Ways: 4, BlockSize: mem.BlockSize},
			cache.Params{SizeBytes: 2 << 20, Ways: 4, BlockSize: mem.BlockSize}},
		{Config{Geom: g, L1Size: 8 << 10, L2BankSize: 64 << 10},
			cache.Params{SizeBytes: 8 << 10, Ways: 4, BlockSize: mem.BlockSize},
			cache.Params{SizeBytes: 64 << 10, Ways: 4, BlockSize: mem.BlockSize}},
	} {
		if got := tc.cfg.L1Params(); got != tc.l1 {
			t.Errorf("%+v L1Params = %+v, want %+v", tc.cfg, got, tc.l1)
		}
		if got := tc.cfg.L2BankParams(); got != tc.l2 {
			t.Errorf("%+v L2BankParams = %+v, want %+v", tc.cfg, got, tc.l2)
		}
	}
}

// node is a stand-in controller that logs its construction, counts
// delivered messages and records when the last one reached Recv.
type node struct {
	name string
	got  int
	eng  *sim.Engine
	at   sim.Time
}

func (n *node) Recv(*network.Message) { n.got++; n.at = n.eng.Now() }

func (n *node) Access(cpu.AccessKind, mem.Addr, uint64, func(uint64)) {}

// TestWireOrderAndAttach pins what Init installs (the engine, the
// geometry, a network with the kind table and a counter registry with
// the network's fault counters), the construction order every stack
// depends on (per CMP: banks, then L1D and L1I per processor, then
// memory), that an L1 constructor sees its CMP's banks, and that every
// controller receives the messages addressed to its node after its
// class's latency.
func TestWireOrderAndAttach(t *testing.T) {
	eng := sim.NewEngine()
	h := Config{Geom: topo.NewGeometry(2, 2, 2)}
	kinds := network.Kinds{{Name: "Msg"}}
	var g Grid[*node, *node, *node]
	g.Init(eng, h, network.Default(), kinds)
	net := g.Net
	if g.Eng != eng || net == nil || net.Eng != eng {
		t.Fatal("Init did not build the network on its engine")
	}
	if len(net.Kinds) != 1 || &net.Kinds[0] != &kinds[0] {
		t.Errorf("network kind table = %v, want the table Init was given", net.Kinds)
	}
	if g.Counters() == nil || g.Counters() != g.Ctrs {
		t.Fatal("Init built no counter registry")
	}
	if _, ok := g.Ctrs.Snapshot()[counters.NetDropped]; !ok {
		t.Errorf("registry %v lacks the network's fault counters", g.Ctrs.Snapshot())
	}
	var order []string
	mk := func(format string, args ...any) *node {
		n := &node{name: fmt.Sprintf(format, args...), eng: eng}
		order = append(order, n.name)
		return n
	}
	const memLatency = 3 * sim.Nanosecond
	g.Wire(memLatency,
		func(_ topo.NodeID, c, b int) *node { return mk("L2 %d.%d", c, b) },
		func(_ topo.NodeID, c, p int, instr bool) *node {
			if len(g.L2s[c]) != h.Geom.L2Banks || g.L2s[c][h.Geom.L2Banks-1] == nil {
				t.Errorf("L1 %d.%d built before its CMP's banks", c, p)
			}
			if instr {
				return mk("L1I %d.%d", c, p)
			}
			return mk("L1D %d.%d", c, p)
		},
		func(_ topo.NodeID, c int) *node { return mk("Mem %d", c) })

	want := []string{
		"L2 0.0", "L2 0.1", "L1D 0.0", "L1I 0.0", "L1D 0.1", "L1I 0.1", "Mem 0",
		"L2 1.0", "L2 1.1", "L1D 1.0", "L1I 1.0", "L1D 1.1", "L1I 1.1", "Mem 1",
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("build order = %q, want %q", order, want)
	}
	if g.Geom != h.Geom {
		t.Errorf("grid geometry = %+v, want %+v", g.Geom, h.Geom)
	}
	for proc := 0; proc < h.Geom.TotalProcs(); proc++ {
		c, p := h.Geom.ProcOf(proc)
		d, i := g.Ports(proc)
		if d != g.L1Ds[c][p] || i != g.L1Is[c][p] {
			t.Errorf("Ports(%d) are not CMP %d processor %d's L1s", proc, c, p)
		}
	}

	ids := h.Geom.AllNodes()
	src := h.Geom.MemNode(0)
	arrived := map[topo.NodeID]sim.Time{}
	net.Monitor = func(m *network.Message) { arrived[m.Dst] = eng.Now() }
	for _, id := range ids {
		net.SendNew(network.Message{Src: src, Dst: id})
	}
	eng.Run(1_000_000)
	all := map[topo.NodeID]*node{}
	delay := map[topo.NodeID]sim.Time{}
	for c := 0; c < h.Geom.CMPs; c++ {
		for b, n := range g.L2s[c] {
			all[h.Geom.L2Node(c, b)] = n
			delay[h.Geom.L2Node(c, b)] = L2Latency
		}
		for p := range g.L1Ds[c] {
			all[h.Geom.L1DNode(c, p)] = g.L1Ds[c][p]
			all[h.Geom.L1INode(c, p)] = g.L1Is[c][p]
			delay[h.Geom.L1DNode(c, p)] = L1Latency
			delay[h.Geom.L1INode(c, p)] = L1Latency
		}
		all[h.Geom.MemNode(c)] = g.Mems[c]
		delay[h.Geom.MemNode(c)] = memLatency
	}
	if len(all) != len(ids) {
		t.Fatalf("grid holds %d controllers, geometry has %d nodes", len(all), len(ids))
	}
	for _, id := range ids {
		if n := all[id]; n == nil || n.got != 1 {
			t.Errorf("node %v: controller %v received the wrong messages", id, n)
		} else if n.at != arrived[id]+delay[id] {
			t.Errorf("node %v: Recv ran at %v, want arrival %v + delay %v", id, n.at, arrived[id], delay[id])
		}
	}
}
