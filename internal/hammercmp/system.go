package hammercmp

import (
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
	hier.Grid[*L1Ctrl, *L2Ctrl, *MemCtrl]

	ctr *ctrs
	wbr hier.WbReplies

	// caches lists every cache endpoint; a requester expects
	// len(caches)-1 probe responses plus the memory response.
	caches []topo.NodeID
}

// NewSystem wires a HammerCMP machine.
func NewSystem(eng *sim.Engine, h hier.Config, netCfg network.Config) *System {
	s := &System{caches: h.Geom.AllCaches()}
	s.Init(eng, h, netCfg, kinds)
	s.ctr = newCtrs(s.Ctrs)
	s.wbr = hier.WbReplies{Put: kPut, Grant: kWbGrant, Data: kWbData, Cancel: kWbCancel, ExclAux: auxExcl, Race: s.ctr.wbRace}
	s.Wire(hier.MemLatency, s.newL2, s.newL1, s.newMem)
	return s
}

// respondData answers probe m from cache id with a copy of the block;
// aux adds flags to the shared flag every data response carries.
func (s *System) respondData(id topo.NodeID, m *network.Message, data uint64, dirty bool, aux int32) {
	s.ctr.probeData.Inc()
	s.Net.SendNew(network.Message{
		Src:     id,
		Dst:     m.Requestor,
		Block:   m.Block,
		Kind:    kData,
		HasData: true,
		Data:    data,
		Dirty:   dirty,
		Aux:     aux | auxShared,
	})
}

// respondAck answers probe m from cache id without data.
func (s *System) respondAck(id topo.NodeID, m *network.Message, aux int32) {
	s.ctr.probeAck.Inc()
	s.Net.SendNew(network.Message{
		Src:   id,
		Dst:   m.Requestor,
		Block: m.Block,
		Kind:  kAck,
		Aux:   aux,
	})
}

// probeWb answers probe m from the pending writebacks wb of cache id
// and reports whether one held a valid copy. A ProbeM consumes the
// copy, so its Put will be cancelled. After a ProbeS a shared copy
// exists, so the buffered line must install downstream as O, not M.
func (s *System) probeWb(id topo.NodeID, wb *hier.WbBuffer, m *network.Message) bool {
	w := wb.Valid(m.Block)
	if w == nil {
		return false
	}
	s.respondData(id, m, w.Data, w.Dirty, 0)
	if m.Kind == kProbeM {
		w.Valid = false
	} else {
		w.Excl = false
	}
	return true
}
