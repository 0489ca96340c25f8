package hammercmp

import (
	"fmt"

	"tokencmp/internal/cache"
	"tokencmp/internal/cpu"
	"tokencmp/internal/hier"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/topo"
)

// l1Txn is the broadcast collection state of the outstanding miss. The
// miss completes when every other cache has responded (got == peers)
// and the speculative memory response has arrived.
type l1Txn struct {
	got       int // cache responses collected (acks and data)
	memGot    bool
	dataGot   bool
	data      uint64
	dataDirty bool
	migr      bool
	shared    bool
	memData   uint64
}

// L1Ctrl is a HammerCMP L1 cache controller: a MOESI cache that
// requests through the home memory controller and collects the
// broadcast's fan-in of per-cache responses. A line in state I is
// reserved by the outstanding miss; probes treat it as absent.
type L1Ctrl struct {
	hier.MOESIL1[l1Txn]

	id    topo.NodeID
	sys   *System
	cmp   int
	peers int // caches other than this one = expected probe responses
	wb    hier.WbBuffer
}

func (sys *System) newL1(id topo.NodeID, cmp, _ int, instr bool) *L1Ctrl {
	c := &L1Ctrl{
		id:    id,
		sys:   sys,
		cmp:   cmp,
		peers: len(sys.caches) - 1,
		wb:    hier.NewWbBuffer(id, sys.Net, &sys.wbr),
	}
	c.Init(sys.Eng, sys.Ctrs, id, instr, sys.L1Params(), c.request, c.evict)
	return c
}

// bank returns this CMP's L2 bank serving block b (the writeback
// target).
func (c *L1Ctrl) bank(b mem.Block) topo.NodeID {
	return c.sys.Geom.L2BankFor(c.cmp, b)
}

// home returns block b's home memory controller (the broadcast
// serialization point).
func (c *L1Ctrl) home(b mem.Block) topo.NodeID { return c.sys.Geom.HomeMem(b) }

// request sends the outstanding miss (or upgrade: S and O lines need a
// broadcast for write permission) to the block's home.
func (c *L1Ctrl) request() {
	var req int32 = kGetS
	if k := c.Miss.Kind; k == cpu.Store || k == cpu.Atomic {
		req = kGetM
	}
	c.sys.Net.SendNew(network.Message{
		Src:       c.id,
		Dst:       c.home(c.Miss.Block),
		Block:     c.Miss.Block,
		Kind:      req,
		Requestor: c.id,
	})
}

// evict handles a displaced line: M and O lines start a three-phase
// writeback to the local L2 bank; E and S lines drop silently (E is
// clean — a silent store would have made it M — and a dropped copy
// simply acks not-present to future probes).
func (c *L1Ctrl) evict(b mem.Block, st hier.Line) {
	if st.St != hier.M && st.St != hier.O {
		return
	}
	c.sys.ctr.l1Writeback.Inc()
	c.wb.Put(c.bank(b), b, st.Data, st.Dirty, st.St == hier.M)
}

// Recv implements network.Endpoint. The network calls it after the
// L1's tag-access delay, which every kind waits out (see kinds).
func (c *L1Ctrl) Recv(m *network.Message) {
	switch m.Kind {
	case kAck, kData:
		c.handleResponse(m)
	case kMemData:
		c.handleMemData(m)
	case kProbeS, kProbeM:
		c.handleProbe(m)
	case kWbGrant:
		c.wb.Grant(m)
	default:
		panic(fmt.Sprintf("hammercmp: L1 %v cannot handle %s", c.id, kinds.Name(m.Kind)))
	}
}

// handleResponse folds one probe response into the broadcast
// collection.
func (c *L1Ctrl) handleResponse(m *network.Message) {
	miss := c.For(m.Block)
	if miss == nil {
		panic(fmt.Sprintf("hammercmp: L1 %v stray %s for %v", c.id, kinds.Name(m.Kind), m.Block))
	}
	txn := &miss.Txn
	txn.got++
	if m.Kind == kData {
		txn.dataGot = true
		txn.data = m.Data
		txn.dataDirty = m.Dirty
		if m.Aux&auxMigr != 0 {
			txn.migr = true
		}
		txn.shared = true
	} else if m.Aux&auxShared != 0 {
		txn.shared = true
	}
	c.maybeComplete(m.Block, txn)
}

func (c *L1Ctrl) handleMemData(m *network.Message) {
	miss := c.For(m.Block)
	if miss == nil {
		panic(fmt.Sprintf("hammercmp: L1 %v stray MemData for %v", c.id, m.Block))
	}
	txn := &miss.Txn
	txn.memGot = true
	txn.memData = m.Data
	c.maybeComplete(m.Block, txn)
}

// maybeComplete finishes the miss once every cache and the memory have
// answered. Data preference: a cache data response (the current owner),
// then our own surviving copy (an upgrade whose line was not
// invalidated), then our own pending writeback (the line left the cache
// but its data never left this controller), and only then the
// speculative — possibly stale — memory data.
func (c *L1Ctrl) maybeComplete(b mem.Block, txn *l1Txn) {
	if txn.got < c.peers || !txn.memGot {
		return
	}
	done := c.Finish()
	l := c.Cache.Lookup(b)
	if l == nil {
		panic(fmt.Sprintf("hammercmp: L1 %v completion without reserved line for %v", c.id, b))
	}
	s := &l.State

	var val uint64
	var dirty, fromWb bool
	switch {
	case txn.dataGot:
		val, dirty = txn.data, txn.dataDirty
	case s.St != hier.I:
		val, dirty = s.Data, s.Dirty
	default:
		if w := c.wb.Valid(b); w != nil {
			// We still own the block: the eviction's data never left.
			// Consume the buffered copy (its Put will be cancelled) so
			// ownership is not duplicated at the writeback target.
			val, dirty, fromWb = w.Data, true, true
			w.Valid = false
		} else {
			val, dirty = txn.memData, false
		}
	}

	switch k := c.Miss.Kind; {
	case k == cpu.Store || k == cpu.Atomic:
		// Apply takes the line to M.
	case txn.migr:
		// Migratory handoff: the modified owner invalidated itself and
		// passed write permission with the data.
		c.sys.ctr.migratory.Inc()
		s.St = hier.M
		dirty = true
	case fromWb:
		// Still the owner of the dirty data, but not exclusive: a ProbeS
		// may have handed shared copies out of the departure buffer
		// while it sat valid.
		s.St = hier.O
	case txn.dataGot || txn.shared || s.St != hier.I:
		s.St = hier.S
	default:
		// Nobody holds a copy: exclusive-clean from memory.
		s.St = hier.E
		dirty = false
	}
	s.Data, s.Dirty = val, dirty
	val = c.Apply(s)
	c.Cache.TouchLine(l)

	// Release the home's per-block serialization.
	c.sys.Net.SendNew(network.Message{
		Src:   c.id,
		Dst:   c.home(b),
		Block: b,
		Kind:  kDone,
	})
	done(val)
}

// handleProbe answers a broadcast probe: data if we own the block (in
// the cache or in a pending writeback), an acknowledgment otherwise.
func (c *L1Ctrl) handleProbe(m *network.Message) {
	b := m.Block
	if l := c.Cache.Lookup(b); l != nil && l.State.St != hier.I {
		s := &l.State
		if s.HoldUntil > c.sys.Eng.Now() {
			c.sys.Net.HandleAt(s.HoldUntil, m)
			return
		}
		if m.Kind == kProbeS {
			switch s.St {
			case hier.M:
				// Migratory sharing: invalidate and pass write
				// permission with the dirty data.
				c.sys.respondData(c.id, m, s.Data, true, auxMigr)
				c.invalidate(b, l)
			case hier.O:
				c.sys.respondData(c.id, m, s.Data, s.Dirty, 0)
			case hier.E:
				c.sys.respondData(c.id, m, s.Data, false, 0)
				s.St = hier.S
			default: // hS
				c.sys.respondAck(c.id, m, auxShared)
			}
			return
		}
		// ProbeM: surrender the copy; owners (E, M, O) supply the data.
		if s.St != hier.S {
			c.sys.respondData(c.id, m, s.Data, s.Dirty, 0)
		} else {
			c.sys.respondAck(c.id, m, auxShared)
		}
		c.invalidate(b, l)
		return
	}
	// The copy may live in a pending writeback.
	if !c.sys.probeWb(c.id, &c.wb, m) {
		c.sys.respondAck(c.id, m, 0)
	}
}

// invalidate drops our copy, preserving a placeholder line when a
// transaction is outstanding on the block.
func (c *L1Ctrl) invalidate(b mem.Block, l *cache.Line[hier.Line]) {
	if c.For(b) != nil {
		l.State.St = hier.I
		l.State.Dirty = false
		return
	}
	c.Cache.Invalidate(b)
}
