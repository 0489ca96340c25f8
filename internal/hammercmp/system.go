package hammercmp

import (
	"tokencmp/internal/counters"
	"tokencmp/internal/cpu"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
	"tokencmp/internal/topo"
)

// System is a complete HammerCMP machine.
type System struct {
	Eng  *sim.Engine
	Net  *network.Network
	Cfg  Config
	Geom topo.Geometry

	Ctrs *counters.Set
	ctr  *ctrs

	L1Ds [][]*L1Ctrl
	L1Is [][]*L1Ctrl
	L2s  [][]*L2Ctrl
	Mems []*MemCtrl

	// caches lists every cache endpoint; a requester expects
	// len(caches)-1 probe responses plus the memory response.
	caches []topo.NodeID
}

// NewSystem wires a HammerCMP machine.
func NewSystem(eng *sim.Engine, cfg Config, netCfg network.Config) *System {
	g := cfg.Geom
	s := &System{
		Eng:    eng,
		Cfg:    cfg,
		Geom:   g,
		Net:    network.New(eng, g, netCfg),
		caches: g.AllCaches(),
		Ctrs:   counters.NewSet(),
	}
	s.ctr = newCtrs(s.Ctrs)
	s.Net.WireCounters(s.Ctrs)
	s.L1Ds = make([][]*L1Ctrl, g.CMPs)
	s.L1Is = make([][]*L1Ctrl, g.CMPs)
	s.L2s = make([][]*L2Ctrl, g.CMPs)
	s.Mems = make([]*MemCtrl, g.CMPs)
	for c := 0; c < g.CMPs; c++ {
		s.L1Ds[c] = make([]*L1Ctrl, g.ProcsPerCMP)
		s.L1Is[c] = make([]*L1Ctrl, g.ProcsPerCMP)
		s.L2s[c] = make([]*L2Ctrl, g.L2Banks)
		for b := 0; b < g.L2Banks; b++ {
			l2 := newL2(s, g.L2Node(c, b), c, b)
			s.L2s[c][b] = l2
			s.Net.Attach(l2.id, l2)
		}
		for p := 0; p < g.ProcsPerCMP; p++ {
			d := newL1(s, g.L1DNode(c, p), c, p, false)
			i := newL1(s, g.L1INode(c, p), c, p, true)
			s.L1Ds[c][p] = d
			s.L1Is[c][p] = i
			s.Net.Attach(d.id, d)
			s.Net.Attach(i.id, i)
		}
		m := newMem(s, g.MemNode(c), c)
		s.Mems[c] = m
		s.Net.Attach(m.id, m)
	}
	return s
}

// Ports returns the data and instruction ports of a global processor.
func (s *System) Ports(globalProc int) (data, inst cpu.MemPort) {
	c, p := s.Geom.ProcOf(globalProc)
	return s.L1Ds[c][p], s.L1Is[c][p]
}

// Name reports the protocol name.
func (s *System) Name() string { return s.Cfg.Name() }

// Counters exposes the machine-wide uniform event-counter registry.
func (s *System) Counters() *counters.Set { return s.Ctrs }
