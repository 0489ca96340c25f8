package directory

import (
	"fmt"

	"tokencmp/internal/blocktab"
	"tokencmp/internal/hier"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
	"tokencmp/internal/topo"
)

// homeLine is one inter-CMP directory entry plus the memory image.
type homeLine struct {
	owner   int    // owning CMP, or -1 when memory owns the block
	sharers uint64 // CMP bitmask (excluding the owner)
	value   uint64 // backing memory value
}

// HomeCtrl is a memory controller running the inter-CMP directory: it
// tracks which CMPs cache each of its home blocks (but not which caches
// within a CMP — that is the L2 banks' job), defers conflicting requests
// with per-block busy states, and closes transactions on unblock
// messages.
type HomeCtrl struct {
	id  topo.NodeID
	sys *System
	cmp int

	dir blocktab.Table[homeLine]
	ser hier.Serializer[int32] // busy record: the request kind
}

func (sys *System) newHome(id topo.NodeID, cmp int) *HomeCtrl {
	return &HomeCtrl{id: id, sys: sys, cmp: cmp}
}

// dataDelay is the DRAM data-fetch time not hidden under the directory
// lookup.
func (c *HomeCtrl) dataDelay() sim.Time {
	return hier.DRAMLatency - c.sys.dirLatency()
}

// lineFor returns b's directory entry, materializing it on first touch
// with memory as the owner.
func (c *HomeCtrl) lineFor(b mem.Block) *homeLine {
	l, fresh := c.dir.Insert(b)
	if fresh {
		l.owner = -1
	}
	return l
}

// sendData sends requester req b's memory data with grant aux after the
// DRAM fetch. The block stays busy until req unblocks, so its memory
// value cannot change before the send.
func (c *HomeCtrl) sendData(b mem.Block, req topo.NodeID, value uint64, aux int32) {
	c.sys.Net.SendAfter(c.dataDelay(), network.Message{
		Src:       c.id,
		Dst:       req,
		Block:     b,
		Kind:      kData,
		HasData:   true,
		Data:      value,
		Aux:       aux,
		Requestor: req,
	})
}

// Recv implements network.Endpoint. The network calls it after the
// controller latency plus the directory lookup, which every kind waits
// out (see kinds). The serializer copies queued requests by value, so
// the borrowed message never outlives Recv.
func (c *HomeCtrl) Recv(m *network.Message) {
	switch m.Kind {
	case kGetS, kGetM, kPut:
		c.admit(m)
	case kUnblock:
		c.handleUnblock(m)
	case kWbData, kWbCancel:
		c.handleWbData(m)
	default:
		panic(fmt.Sprintf("directory: home %v cannot handle %s", c.id, kinds.Name(m.Kind)))
	}
}

func (c *HomeCtrl) admit(m *network.Message) {
	b := m.Block
	if c.ser.Busy(b) != nil {
		c.ser.Defer(m)
		return
	}
	switch m.Kind {
	case kGetS:
		c.startGetS(m)
	case kGetM:
		c.startGetM(m)
	case kPut:
		c.ser.Start(b, kPut)
		c.sys.wbr.GrantPut(c.sys.Net, c.id, m)
	}
}

// cmpOf maps a requesting L2 node to its CMP index.
func (c *HomeCtrl) cmpOf(id topo.NodeID) int { return c.sys.Geom.CMPOf(id) }

func (c *HomeCtrl) startGetS(m *network.Message) {
	b := m.Block
	hl := c.lineFor(b)
	c.ser.Start(b, kGetS)

	if hl.owner == -1 {
		// Memory owns the block: read DRAM and grant (E when unshared).
		// The data fetch overlaps the directory lookup already paid in
		// Recv, so only the excess DRAM time is serialized.
		gst := grantS
		if hl.sharers == 0 {
			gst = grantE
		}
		c.sys.ctr.memRead.Inc()
		c.sendData(b, m.Requestor, hl.value, packAux(gst, 0, false))
		return
	}
	// A CMP owns the block: forward (possibly to the requester's own
	// chip, whose L2 serves it from its writeback buffer in PUT races).
	c.sys.ctr.fwdSent.Inc()
	owner := c.sys.Geom.L2BankFor(hl.owner, b)
	c.sys.Net.SendNew(network.Message{
		Src:       c.id,
		Dst:       owner,
		Block:     b,
		Kind:      kFwdGetS,
		Requestor: m.Requestor,
	})
}

func (c *HomeCtrl) startGetM(m *network.Message) {
	b := m.Block
	hl := c.lineFor(b)
	reqCMP := c.cmpOf(m.Requestor)
	c.ser.Start(b, kGetM)

	// Invalidate every sharer chip except the requester.
	acks := 0
	mask := hl.sharers &^ (1 << uint(reqCMP))
	if hl.owner >= 0 && hl.owner != reqCMP {
		mask &^= 1 << uint(hl.owner)
	}
	for cmp := 0; mask != 0; cmp++ {
		if mask&(1<<uint(cmp)) == 0 {
			continue
		}
		mask &^= 1 << uint(cmp)
		acks++
		c.sys.ctr.invSent.Inc()
		c.sys.Net.SendNew(network.Message{
			Src:       c.id,
			Dst:       c.sys.Geom.L2BankFor(cmp, b),
			Block:     b,
			Kind:      kInv,
			Requestor: m.Requestor,
		})
	}

	switch {
	case hl.owner == -1:
		// Memory data (possibly redundant if the requester was a sharer,
		// but always current); the fetch overlaps the directory lookup.
		c.sys.ctr.memRead.Inc()
		c.sendData(b, m.Requestor, hl.value, packAux(grantM, acks, false))
	case hl.owner == reqCMP:
		// Ownership upgrade: the requester chip already holds the data.
		c.sys.Net.SendNew(network.Message{
			Src:       c.id,
			Dst:       m.Requestor,
			Block:     b,
			Kind:      kGrant,
			Aux:       packAux(grantM, acks, false),
			Requestor: m.Requestor,
		})
	default:
		// Forward to the owner chip, which sends data to the requester.
		c.sys.ctr.fwdSent.Inc()
		c.sys.Net.SendNew(network.Message{
			Src:       c.id,
			Dst:       c.sys.Geom.L2BankFor(hl.owner, b),
			Block:     b,
			Kind:      kFwdGetM,
			Aux:       packAux(grantM, acks, false),
			Requestor: m.Requestor,
		})
	}
}

// handleUnblock closes a GetS/GetM transaction, applying the requester's
// reported result state to the directory.
func (c *HomeCtrl) handleUnblock(m *network.Message) {
	b := m.Block
	if c.ser.Busy(b) == nil {
		panic(fmt.Sprintf("directory: home %v unblock without transaction for %v", c.id, b))
	}
	hl := c.lineFor(b)
	reqCMP := c.cmpOf(m.Src)
	result, _, _ := unpackAux(m.Aux)
	switch result {
	case grantS:
		hl.sharers |= 1 << uint(reqCMP)
	default: // E or M: the requester chip is now the exclusive owner.
		hl.owner = reqCMP
		hl.sharers = 0
	}
	c.ser.End(b)
	c.drain(b)
}

// handleWbData completes a chip's three-phase writeback.
func (c *HomeCtrl) handleWbData(m *network.Message) {
	b := m.Block
	if kind := c.ser.Busy(b); kind == nil || *kind != kPut {
		panic(fmt.Sprintf("directory: home %v %s without PUT for %v", c.id, kinds.Name(m.Kind), b))
	}
	c.ser.End(b)
	hl := c.lineFor(b)
	evictor := c.cmpOf(m.Src)
	if m.Kind == kWbData {
		c.sys.ctr.memWrite.Inc()
		hl.value = m.Data
		if hl.owner == evictor {
			hl.owner = -1
		}
		hl.sharers &^= 1 << uint(evictor)
	} else {
		// Cancelled PUT: the copy was consumed by a racing transaction
		// whose unblock already updated the directory, so the evictor can
		// no longer be the registered owner.
		if hl.owner == evictor {
			panic(fmt.Sprintf("directory: home %v WbCancel from registered owner for %v", c.id, b))
		}
		hl.sharers &^= 1 << uint(evictor)
	}
	c.drain(b)
}

func (c *HomeCtrl) drain(b mem.Block) {
	q, ok := c.ser.Pop(b)
	if !ok {
		return
	}
	// The deferred request's directory latency was paid at arrival;
	// re-admit it on the next event, mirroring the arrival path.
	c.sys.Net.HandleAfter(0, &q)
}
