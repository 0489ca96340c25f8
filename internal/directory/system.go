package directory

import (
	"tokencmp/internal/hier"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
)

// System is a complete DirectoryCMP machine.
type System struct {
	hier.Grid[*L1Ctrl, *L2Ctrl, *HomeCtrl]

	// zeroDir selects the unrealistic zero-cycle directory
	// (DirectoryCMP-zero) in place of the DRAM directory.
	zeroDir bool

	ctr *ctrs
	wbr hier.WbReplies
}

// NewSystem wires a DirectoryCMP machine, with a zero-cycle directory
// if zeroDir is set.
func NewSystem(eng *sim.Engine, h hier.Config, zeroDir bool, netCfg network.Config) *System {
	s := &System{zeroDir: zeroDir}
	s.Init(eng, h, netCfg, kinds)
	s.ctr = newCtrs(s.Ctrs)
	s.wbr = hier.WbReplies{Put: kPut, Grant: kWbGrant, Data: kWbData, Cancel: kWbCancel, Race: s.ctr.wbRace}
	// The home's access latency includes the directory lookup (80 ns for
	// the DRAM directory, 0 for DirectoryCMP-zero).
	s.Wire(hier.MemLatency+s.dirLatency(), s.newL2, s.newL1, s.newHome)
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
