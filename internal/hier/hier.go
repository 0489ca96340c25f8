// Package hier describes the paper's Table 3 target system once for all
// protocol stacks: the cache geometry and latencies every protocol runs
// with, the shell every stack is built in (its engine, interconnect,
// counter registry and grid of L1, L2-bank and memory controllers), and
// the controller parts the stacks share: the L1 front end, the MOESI hit
// path, the three-phase writeback (the evictor's WbBuffer sends the Put
// and answers the grant, and WbReplies.GrantPut is every grantor's
// WbGrant), the busy-block serializer and the payloads of delayed calls.
package hier

import (
	"tokencmp/internal/cache"
	"tokencmp/internal/counters"
	"tokencmp/internal/cpu"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
	"tokencmp/internal/topo"
)

// Table 3 parameters. The paper applies the response delay, a bounded
// permission hold long enough to finish a short critical section
// (§3.2), to all protocols.
const (
	L1Ways = 4
	L2Ways = 4

	L1Latency     = 2 * sim.Nanosecond  // L1 tag/data access
	L2Latency     = 7 * sim.Nanosecond  // L2 bank access
	MemLatency    = 6 * sim.Nanosecond  // memory controller decision
	DRAMLatency   = 80 * sim.Nanosecond // DRAM array access
	ResponseDelay = 30 * sim.Nanosecond // permission hold after an acquire

	l1Size     = 128 << 10     // per L1 (data or instruction)
	l2BankSize = (8 << 20) / 4 // per bank: an 8 MB L2 in four banks
)

// Config is the structure of one machine: its geometry and, optionally,
// smaller caches than Table 3 (a zero size means the Table 3 size).
type Config struct {
	Geom               topo.Geometry
	L1Size, L2BankSize int
}

// L1Params returns the parameters of one L1 array.
func (c Config) L1Params() cache.Params {
	return params(c.L1Size, l1Size, L1Ways)
}

// L2BankParams returns the parameters of one L2 bank's array.
func (c Config) L2BankParams() cache.Params {
	return params(c.L2BankSize, l2BankSize, L2Ways)
}

func params(size, table3, ways int) cache.Params {
	if size == 0 {
		size = table3
	}
	return cache.Params{SizeBytes: size, Ways: ways, BlockSize: mem.BlockSize}
}

// L1Port is an L1 controller: its processor's memory port and an
// interconnect endpoint.
type L1Port interface {
	cpu.MemPort
	network.Endpoint
}

// Grid is the shell of one protocol stack: its structure, engine,
// interconnect and counter registry, and its controllers, indexed by CMP
// and then by processor or bank. A System embeds it for all of these and
// for Ports and Counters.
type Grid[L1 L1Port, L2, M network.Endpoint] struct {
	Config
	Eng  *sim.Engine
	Net  *network.Network
	Ctrs *counters.Set

	L1Ds, L1Is [][]L1 // [cmp][proc]
	L2s        [][]L2 // [cmp][bank]
	Mems       []M    // [cmp]
}

// Init builds the stack's interconnect over cfg's geometry with the
// protocol's kind table, and its counter registry with the network's
// fault counters in it.
func (g *Grid[L1, L2, M]) Init(eng *sim.Engine, cfg Config, netCfg network.Config, kinds network.Kinds) {
	g.Config, g.Eng = cfg, eng
	g.Net = network.New(eng, cfg.Geom, netCfg)
	g.Net.Kinds = kinds
	g.Ctrs = counters.NewSet()
	g.Net.WireCounters(g.Ctrs)
}

// Counters exposes the machine-wide uniform event-counter registry.
func (g *Grid[L1, L2, M]) Counters() *counters.Set { return g.Ctrs }

// Wire builds every controller of the geometry Init was given and
// attaches it to the network with its class's access latency: L1Latency
// for an L1, L2Latency for a bank and memLatency for the memory
// controller. Per CMP it builds the L2 banks, then each processor's L1D
// and L1I, then the memory controller. The grid fills in as it goes, so
// an L1 constructor may read its CMP's banks from g.L2s.
func (g *Grid[L1, L2, M]) Wire(memLatency sim.Time,
	newL2 func(id topo.NodeID, cmp, bank int) L2,
	newL1 func(id topo.NodeID, cmp, proc int, instr bool) L1,
	newMem func(id topo.NodeID, cmp int) M) {
	geom, net := g.Geom, g.Net
	g.L1Ds = make([][]L1, geom.CMPs)
	g.L1Is = make([][]L1, geom.CMPs)
	g.L2s = make([][]L2, geom.CMPs)
	g.Mems = make([]M, geom.CMPs)
	for c := 0; c < geom.CMPs; c++ {
		g.L1Ds[c] = make([]L1, geom.ProcsPerCMP)
		g.L1Is[c] = make([]L1, geom.ProcsPerCMP)
		g.L2s[c] = make([]L2, geom.L2Banks)
		for b := 0; b < geom.L2Banks; b++ {
			id := geom.L2Node(c, b)
			g.L2s[c][b] = newL2(id, c, b)
			net.AttachDelay(id, g.L2s[c][b], L2Latency)
		}
		for p := 0; p < geom.ProcsPerCMP; p++ {
			did, iid := geom.L1DNode(c, p), geom.L1INode(c, p)
			g.L1Ds[c][p] = newL1(did, c, p, false)
			g.L1Is[c][p] = newL1(iid, c, p, true)
			net.AttachDelay(did, g.L1Ds[c][p], L1Latency)
			net.AttachDelay(iid, g.L1Is[c][p], L1Latency)
		}
		id := geom.MemNode(c)
		g.Mems[c] = newMem(id, c)
		net.AttachDelay(id, g.Mems[c], memLatency)
	}
}

// Ports returns the data and instruction memory ports of a global
// processor index.
func (g *Grid[L1, L2, M]) Ports(globalProc int) (data, inst cpu.MemPort) {
	c, p := g.Geom.ProcOf(globalProc)
	return g.L1Ds[c][p], g.L1Is[c][p]
}
