package hammercmp

import (
	"tokencmp/internal/counters"
	"tokencmp/internal/hier"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
	"tokencmp/internal/topo"
)

// System is a complete HammerCMP machine on the Table 3 hierarchy. It
// has deliberately no directory state or lookup latency: the home
// broadcasts probes as soon as its controller decision completes, which
// is the protocol's whole latency advantage over DirectoryCMP.
type System struct {
	Eng *sim.Engine
	Net *network.Network
	hier.Grid[*L1Ctrl, *L2Ctrl, *MemCtrl]

	Ctrs *counters.Set
	ctr  *ctrs
	wbr  hier.WbReplies

	// caches lists every cache endpoint; a requester expects
	// len(caches)-1 probe responses plus the memory response.
	caches []topo.NodeID
}

// NewSystem wires a HammerCMP machine.
func NewSystem(eng *sim.Engine, h hier.Config, netCfg network.Config) *System {
	s := &System{
		Eng:    eng,
		Net:    network.New(eng, h.Geom, netCfg),
		caches: h.Geom.AllCaches(),
		Ctrs:   counters.NewSet(),
	}
	s.ctr = newCtrs(s.Ctrs)
	s.wbr = hier.WbReplies{Data: kWbData, Cancel: kWbCancel, ExclAux: auxExcl, Race: s.ctr.wbRace}
	s.Net.WireCounters(s.Ctrs)
	s.Wire(h, s.Net, s.newL2, s.newL1, s.newMem)
	return s
}

// Name reports the protocol name.
func (s *System) Name() string { return "HammerCMP" }

// Counters exposes the machine-wide uniform event-counter registry.
func (s *System) Counters() *counters.Set { return s.Ctrs }
