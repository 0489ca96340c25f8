package hammercmp

import (
	"fmt"
	"slices"

	"tokencmp/internal/blocktab"
	"tokencmp/internal/hier"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/topo"
)

// MemCtrl is a HammerCMP home memory controller. It holds no directory
// state at all — only the backing memory image — and serializes
// transactions per block: a request broadcasts probes to every cache
// except the requester and speculatively reads DRAM; the block stays
// busy until the requester's source-done. Writebacks use the same
// per-block busy state, so probes can never race a writeback's data
// transfer into memory.
type MemCtrl struct {
	id  topo.NodeID
	sys *System
	cmp int

	mem blocktab.Table[uint64]
	// ser's busy record is the kind of the block's transaction: a
	// broadcast in flight (kGetS or kGetM, closed by the requester's
	// Done) or a writeback in its data window (kPut).
	ser hier.Serializer[int32]
}

func (sys *System) newMem(id topo.NodeID, cmp int) *MemCtrl {
	return &MemCtrl{id: id, sys: sys, cmp: cmp}
}

// Recv implements network.Endpoint. The network calls it after the
// home's controller delay, which every kind waits out (see kinds).
// Queued requests are copied by value, so the borrowed message never
// outlives Recv.
func (c *MemCtrl) Recv(m *network.Message) {
	switch m.Kind {
	case kGetS, kGetM, kPut:
		c.admit(m)
	case kDone:
		c.close(m, kGetS, kGetM)
	case kWbData:
		c.sys.ctr.memWrite.Inc()
		*c.mem.At(m.Block) = m.Data
		c.close(m, kPut)
	case kWbCancel:
		c.close(m, kPut)
	default:
		panic(fmt.Sprintf("hammercmp: home %v cannot handle %s", c.id, kinds.Name(m.Kind)))
	}
}

func (c *MemCtrl) admit(m *network.Message) {
	b := m.Block
	if c.ser.Busy(b) != nil {
		c.ser.Defer(m)
		return
	}
	c.ser.Start(b, m.Kind)
	if m.Kind == kPut {
		c.sys.wbr.GrantPut(c.sys.Net, c.id, m)
		return
	}
	c.startBroadcast(m)
}

// startBroadcast probes every cache except the requester and
// speculatively reads DRAM for the requester.
func (c *MemCtrl) startBroadcast(m *network.Message) {
	b := m.Block
	probe := network.Message{
		Src:       c.id,
		Block:     b,
		Kind:      kProbeS,
		Requestor: m.Requestor,
	}
	if m.Kind == kGetM {
		probe.Kind = kProbeM
	}
	for _, id := range c.sys.caches {
		if id == m.Requestor {
			continue
		}
		c.sys.ctr.probeSent.Inc()
		probe.Dst = id
		c.sys.Net.SendNew(probe)
	}
	// The speculative DRAM read: the value cannot change while the
	// block is busy (writebacks serialize behind this transaction), so
	// reading it now and injecting the reply after the array latency is
	// exact.
	c.sys.ctr.memRead.Inc()
	var value uint64 // a block never written holds zero
	if v := c.mem.Peek(b); v != nil {
		value = *v
	}
	c.sys.Net.SendAfter(hier.DRAMLatency, network.Message{
		Src:     c.id,
		Dst:     m.Requestor,
		Block:   b,
		Kind:    kMemData,
		HasData: true,
		Data:    value,
	})
}

// close ends the block's current transaction (whose kind must be one
// of wants) and admits the next queued message.
func (c *MemCtrl) close(m *network.Message, wants ...int32) {
	b := m.Block
	if kind := c.ser.Busy(b); kind == nil || !slices.Contains(wants, *kind) {
		panic(fmt.Sprintf("hammercmp: home %v stray %s for %v", c.id, kinds.Name(m.Kind), b))
	}
	c.ser.End(b)
	c.drain(b)
}

func (c *MemCtrl) drain(b mem.Block) {
	q, ok := c.ser.Pop(b)
	if !ok {
		return
	}
	// The controller decision latency was already paid at arrival;
	// re-admit it on the next event, mirroring the arrival path.
	c.sys.Net.HandleAfter(0, &q)
}
