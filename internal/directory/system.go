package directory

import (
	"tokencmp/internal/counters"
	"tokencmp/internal/hier"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
)

// System is a complete DirectoryCMP machine.
type System struct {
	Eng *sim.Engine
	Net *network.Network
	hier.Grid[*L1Ctrl, *L2Ctrl, *HomeCtrl]

	// zeroDir selects the unrealistic zero-cycle directory
	// (DirectoryCMP-zero) in place of the DRAM directory.
	zeroDir bool

	Ctrs *counters.Set
	ctr  *ctrs
	wbr  hier.WbReplies
}

// NewSystem wires a DirectoryCMP machine, with a zero-cycle directory
// if zeroDir is set.
func NewSystem(eng *sim.Engine, h hier.Config, zeroDir bool, netCfg network.Config) *System {
	s := &System{
		Eng:     eng,
		Net:     network.New(eng, h.Geom, netCfg),
		zeroDir: zeroDir,
		Ctrs:    counters.NewSet(),
	}
	s.ctr = newCtrs(s.Ctrs)
	s.wbr = hier.WbReplies{Put: kPut, Grant: kWbGrant, Data: kWbData, Cancel: kWbCancel, Race: s.ctr.wbRace}
	s.Net.WireCounters(s.Ctrs)
	s.Net.Kinds = kinds
	// Every directory controller acts only after its access latency;
	// the home's includes the directory lookup (80 ns for the DRAM
	// directory, 0 for DirectoryCMP-zero).
	s.Wire(h, s.Net, hier.Delays{
		L1:  network.Delay{Latency: hier.L1Latency, Kinds: network.AllKinds},
		L2:  network.Delay{Latency: hier.L2Latency, Kinds: network.AllKinds},
		Mem: network.Delay{Latency: hier.MemLatency + s.dirLatency(), Kinds: network.AllKinds},
	}, s.newL2, s.newL1, s.newHome)
	return s
}

// dirLatency is the inter-CMP directory access time: the DRAM latency
// for the DRAM directory, 0 for DirectoryCMP-zero.
func (s *System) dirLatency() sim.Time {
	if s.zeroDir {
		return 0
	}
	return hier.DRAMLatency
}

// Name reports the protocol name.
func (s *System) Name() string {
	if s.zeroDir {
		return "DirectoryCMP-zero"
	}
	return "DirectoryCMP"
}

// Counters exposes the machine-wide uniform event-counter registry.
func (s *System) Counters() *counters.Set { return s.Ctrs }
