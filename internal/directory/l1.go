package directory

import (
	"fmt"

	"tokencmp/internal/cpu"
	"tokencmp/internal/hier"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/topo"
)

// L1Ctrl is a DirectoryCMP L1 cache controller. Intra-CMP ownership
// lives either at one L1 (E or M) or at the L2 bank, so its lines are
// only S, E or M (I marks a line reserved by the outstanding miss).
type L1Ctrl struct {
	hier.MOESIL1[struct{}]

	id  topo.NodeID
	sys *System
	cmp int
	wb  hier.WbBuffer
}

func (sys *System) newL1(id topo.NodeID, cmp, _ int, instr bool) *L1Ctrl {
	c := &L1Ctrl{id: id, sys: sys, cmp: cmp, wb: hier.NewWbBuffer(id, sys.Net, &sys.wbr)}
	c.Init(sys.Eng, sys.Ctrs, id, instr, sys.L1Params(), c.request, c.evict)
	return c
}

func (c *L1Ctrl) bank(b mem.Block) topo.NodeID {
	return c.sys.Geom.L2BankFor(c.cmp, b)
}

// request asks the L2 bank for the outstanding miss's permission.
func (c *L1Ctrl) request() {
	var req int32 = kGetS
	if k := c.Miss.Kind; k == cpu.Store || k == cpu.Atomic {
		req = kGetM
	}
	c.sys.Net.SendNew(network.Message{
		Src:       c.id,
		Dst:       c.bank(c.Miss.Block),
		Block:     c.Miss.Block,
		Kind:      req,
		Requestor: c.id,
	})
}

// evict handles a displaced line: E and M lines start a three-phase
// writeback; S lines are dropped silently (the directory's sharer bit
// goes stale, which is benign).
func (c *L1Ctrl) evict(b mem.Block, st hier.Line) {
	if st.St != hier.E && st.St != hier.M {
		return
	}
	c.sys.ctr.l1Writeback.Inc()
	c.wb.Put(c.bank(b), b, st.Data, st.Dirty, false)
}

// Recv implements network.Endpoint. The network calls it after the
// L1's tag-access delay, which every kind waits out (see kinds).
func (c *L1Ctrl) Recv(m *network.Message) {
	switch m.Kind {
	case kData, kGrant:
		c.handleGrant(m)
	case kFwdGetS:
		c.handleFwdGetS(m)
	case kFwdGetM:
		c.handleFwdGetM(m)
	case kInv:
		c.handleInv(m)
	case kWbGrant:
		c.wb.Grant(m)
	default:
		panic(fmt.Sprintf("directory: L1 %v cannot handle %s", c.id, kinds.Name(m.Kind)))
	}
}

func (c *L1Ctrl) handleGrant(m *network.Message) {
	b := m.Block
	if c.For(b) == nil {
		panic(fmt.Sprintf("directory: L1 %v got grant for %v with no transaction", c.id, b))
	}
	done := c.Finish()
	l := c.Cache.Lookup(b)
	if l == nil {
		panic(fmt.Sprintf("directory: L1 %v grant for unreserved line %v", c.id, b))
	}
	s := &l.State
	gst, _, _ := unpackAux(m.Aux)
	if m.HasData {
		s.Data = m.Data
		s.Dirty = m.Dirty
	}
	switch gst {
	case grantS:
		s.St = hier.S
	case grantE:
		s.St = hier.E
	case grantM:
		s.St = hier.M
	}
	c.Cache.TouchLine(l)
	val := c.Apply(s)
	// Close the intra-CMP directory transaction.
	c.sys.Net.SendNew(network.Message{
		Src:   c.id,
		Dst:   c.bank(b),
		Block: b,
		Kind:  kUnblock,
	})
	done(val)
}

// stateOf finds the line in the cache or the writeback buffer.
func (c *L1Ctrl) stateOf(b mem.Block) (data uint64, dirty bool, w *hier.WbEntry, l *hier.Line) {
	if l := c.Cache.Lookup(b); l != nil {
		return l.State.Data, l.State.Dirty, nil, &l.State
	}
	if w := c.wb.Valid(b); w != nil {
		return w.Data, w.Dirty, w, nil
	}
	return 0, false, nil, nil
}

// handleFwdGetS serves a read forward from the intra-CMP directory. The
// response routes through the L2 bank (the paper's hierarchical
// artifact). A modified line triggers the migratory optimization:
// invalidate and pass ownership.
func (c *L1Ctrl) handleFwdGetS(m *network.Message) {
	b := m.Block
	data, dirty, w, l := c.stateOf(b)
	if l != nil && l.HoldUntil > c.sys.Eng.Now() {
		c.sys.Net.HandleAt(l.HoldUntil, m)
		return
	}
	migratory := false
	switch {
	case l != nil && l.St == hier.M && l.Dirty:
		// Migratory sharing: invalidate our copy, pass read/write access.
		migratory = true
		c.sys.ctr.migratory.Inc()
		c.Cache.Invalidate(b)
	case l != nil:
		l.St = hier.S // degrade; L2 becomes the on-chip owner of the data
	case w != nil:
		// Data lives in the writeback buffer; serve from there (the PUT
		// will be cancelled when its grant arrives if the line is gone —
		// here the copy survives as far as we know, keep it valid).
	default:
		panic(fmt.Sprintf("directory: L1 %v FwdGetS for absent %v", c.id, b))
	}
	c.sys.Net.SendNew(network.Message{
		Src:     c.id,
		Dst:     m.Src, // the L2 bank
		Block:   b,
		Kind:    kFwdResp,
		HasData: true,
		Data:    data,
		Dirty:   dirty,
		Aux:     packAux(grantS, 0, migratory),
		Proc:    m.Proc,
	})
}

// handleFwdGetM serves a write forward: send data to the L2 bank and
// invalidate.
func (c *L1Ctrl) handleFwdGetM(m *network.Message) {
	b := m.Block
	data, dirty, w, l := c.stateOf(b)
	if l != nil && l.HoldUntil > c.sys.Eng.Now() {
		c.sys.Net.HandleAt(l.HoldUntil, m)
		return
	}
	switch {
	case l != nil:
		c.Cache.Invalidate(b)
	case w != nil:
		w.Valid = false // consumed; PUT will be cancelled
	default:
		panic(fmt.Sprintf("directory: L1 %v FwdGetM for absent %v", c.id, b))
	}
	c.sys.Net.SendNew(network.Message{
		Src:     c.id,
		Dst:     m.Src,
		Block:   b,
		Kind:    kFwdResp,
		HasData: true,
		Data:    data,
		Dirty:   dirty,
		Aux:     packAux(grantM, 0, false),
		Proc:    m.Proc,
	})
}

// handleInv invalidates a (possibly stale) sharer entry and acks to the
// collector named in Requestor.
func (c *L1Ctrl) handleInv(m *network.Message) {
	b := m.Block
	if l := c.Cache.Lookup(b); l != nil && c.For(b) == nil {
		if l.State.HoldUntil > c.sys.Eng.Now() {
			c.sys.Net.HandleAt(l.State.HoldUntil, m)
			return
		}
		c.Cache.Invalidate(b)
	} else if w := c.wb.Valid(b); w != nil {
		w.Valid = false
	}
	c.sys.Net.SendNew(network.Message{
		Src:   c.id,
		Dst:   m.Requestor,
		Block: b,
		Kind:  kInvAck,
		Proc:  m.Proc,
	})
}
