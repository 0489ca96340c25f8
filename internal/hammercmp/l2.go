package hammercmp

import (
	"fmt"

	"tokencmp/internal/cache"
	"tokencmp/internal/hier"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/topo"
)

// l2Line is an L2 bank line. HammerCMP's L2 is a victim cache: lines
// arrive only through L1 owner writebacks, so they are always hM or
// hO.
type l2Line struct {
	st    hier.State
	data  uint64
	dirty bool
}

// L2Ctrl is a HammerCMP L2 bank: an on-chip victim cache that answers
// broadcast probes like any other cache and spills its own victims to
// the home memory controller.
//
// The bank is the ordering point for its L1s' writebacks: from the
// moment a Put arrives until its WbData or WbCancel lands, probes for
// that block are deferred. Without the deferral a probe could find the
// data nowhere — already granted away from the L1's buffer but not yet
// installed here — and the requester would complete with stale memory
// data.
type L2Ctrl struct {
	id        topo.NodeID
	sys       *System
	cmp, bank int

	cache *cache.Array[l2Line]
	wb    hier.WbBuffer         // our writebacks to home
	ser   hier.Serializer[bool] // busy while an L1 Put is in its data window
}

func (sys *System) newL2(id topo.NodeID, cmp, bank int) *L2Ctrl {
	return &L2Ctrl{
		id:    id,
		sys:   sys,
		cmp:   cmp,
		bank:  bank,
		cache: cache.New[l2Line](sys.L2BankParams()),
		wb:    hier.NewWbBuffer(id, sys.Net, &sys.wbr),
	}
}

func (c *L2Ctrl) home(b mem.Block) topo.NodeID { return c.sys.Geom.HomeMem(b) }

// Recv implements network.Endpoint. The network calls it after the
// bank's tag-access delay, which every kind waits out (see kinds).
// Messages deferred behind a writeback window are copied by value, so
// the borrowed message never outlives Recv.
func (c *L2Ctrl) Recv(m *network.Message) {
	switch m.Kind {
	case kProbeS, kProbeM, kPut:
		if c.ser.Busy(m.Block) != nil {
			c.ser.Defer(m)
		} else if m.Kind == kPut {
			c.handlePut(m)
		} else {
			c.handleProbe(m)
		}
	case kWbData, kWbCancel:
		c.handleWbData(m)
	case kWbGrant:
		c.wb.Grant(m)
	default:
		panic(fmt.Sprintf("hammercmp: L2 %v cannot handle %s", c.id, kinds.Name(m.Kind)))
	}
}

// handleProbe answers a broadcast probe from the bank's line or its
// pending writeback to home.
func (c *L2Ctrl) handleProbe(m *network.Message) {
	b := m.Block
	if l := c.cache.Lookup(b); l != nil {
		s := &l.State
		c.sys.respondData(c.id, m, s.data, s.dirty, 0)
		if m.Kind == kProbeM {
			c.cache.Invalidate(b)
		} else if s.st == hier.M {
			s.st = hier.O // a reader exists now; no silent upgrades here anyway
		}
		return
	}
	if !c.sys.probeWb(c.id, &c.wb, m) {
		c.sys.respondAck(c.id, m, 0)
	}
}

// handlePut opens an L1's writeback window: grant immediately and
// defer probes until the data (or a cancel) arrives.
func (c *L2Ctrl) handlePut(m *network.Message) {
	c.ser.Start(m.Block, true)
	c.sys.wbr.GrantPut(c.sys.Net, c.id, m)
}

// handleWbData closes an L1's writeback window, installing the line
// (possibly spilling a victim to home) on data, and replays deferred
// messages.
func (c *L2Ctrl) handleWbData(m *network.Message) {
	b := m.Block
	if c.ser.Busy(b) == nil {
		panic(fmt.Sprintf("hammercmp: L2 %v %s without Put window for %v", c.id, kinds.Name(m.Kind), b))
	}
	if m.Kind == kWbData {
		line, victim, vstate, wasEvicted := c.cache.Install(b)
		if wasEvicted {
			c.spill(victim, vstate)
		}
		st := hier.O
		if m.Aux&auxExcl != 0 {
			st = hier.M
		}
		line.State = l2Line{st: st, data: m.Data, dirty: m.Dirty}
	}
	c.ser.End(b)
	c.drain(b)
}

// spill writes an evicted victim back to its home memory controller
// (three-phase, probeable from the buffer while in flight).
func (c *L2Ctrl) spill(v mem.Block, st l2Line) {
	c.sys.ctr.l2Writeback.Inc()
	c.wb.Put(c.home(v), v, st.data, st.dirty, st.st == hier.M)
}

// drain replays messages deferred behind a writeback window.
func (c *L2Ctrl) drain(b mem.Block) {
	for {
		if c.ser.Busy(b) != nil {
			return
		}
		m, ok := c.ser.Pop(b)
		if !ok {
			return
		}
		c.Recv(&m)
	}
}
