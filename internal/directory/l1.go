package directory

import (
	"fmt"

	"tokencmp/internal/cache"
	"tokencmp/internal/cpu"
	"tokencmp/internal/hier"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
	"tokencmp/internal/stats"
	"tokencmp/internal/topo"
)

// l1State is the MOESI-ish stable state of an L1 line. Intra-CMP
// ownership lives either at one L1 (E or M) or at the L2 bank, so L1
// lines need only I (invalid, implicit), S, E, and M.
type l1State int

const (
	l1S l1State = iota
	l1E
	l1M
)

// l1Line is an L1 cache line.
type l1Line struct {
	st        l1State
	data      uint64
	dirty     bool
	holdUntil sim.Time // response-delay mechanism
}

// l1Txn is the single outstanding miss transaction.
type l1Txn struct {
	kind  cpu.AccessKind
	store uint64
	done  func(uint64)
}

// wbEntry buffers a three-phase writeback awaiting its grant.
type wbEntry struct {
	data  uint64
	dirty bool
	valid bool // cleared if a forward/invalidate consumed the line
}

// L1Ctrl is a DirectoryCMP L1 cache controller.
type L1Ctrl struct {
	id        topo.NodeID
	sys       *System
	isInstr   bool
	cmp, proc int

	cache    *cache.Array[l1Line]
	txn      *l1Txn    // the outstanding miss, if any
	txnBlock mem.Block // the block txn is for
	wb       map[mem.Block]*wbEntry

	pend cpu.PendingAccess // access parked across the tag-access delay
}

// l1AttemptCall is the closure-free ScheduleCall target for the
// tag-access delay.
func l1AttemptCall(ctx, _ any) {
	c := ctx.(*L1Ctrl)
	c.attempt(c.pend.Take())
}

func (sys *System) newL1(id topo.NodeID, cmp, proc int, instr bool) *L1Ctrl {
	return &L1Ctrl{
		id:      id,
		sys:     sys,
		isInstr: instr,
		cmp:     cmp,
		proc:    proc,
		cache:   cache.New[l1Line](sys.L1Params()),
		wb:      make(map[mem.Block]*wbEntry),
	}
}

// txnFor returns the outstanding miss for b, or nil.
func (c *L1Ctrl) txnFor(b mem.Block) *l1Txn {
	if c.txnBlock != b {
		return nil
	}
	return c.txn
}

func (c *L1Ctrl) bank(b mem.Block) topo.NodeID {
	return c.sys.Geom.L2BankFor(c.cmp, b)
}

// Access implements cpu.MemPort.
func (c *L1Ctrl) Access(kind cpu.AccessKind, addr mem.Addr, store uint64, done func(uint64)) {
	if c.isInstr && kind != cpu.IFetch {
		panic("directory: data access routed to L1I")
	}
	b := mem.BlockOf(addr)
	if c.txn != nil {
		panic(fmt.Sprintf("directory: L1 %v already busy on %v", c.id, c.txnBlock))
	}
	c.pend.Park("directory: L1", kind, b, store, done)
	c.sys.Eng.ScheduleCall(hier.L1Latency, l1AttemptCall, c, nil)
}

func (c *L1Ctrl) attempt(kind cpu.AccessKind, b mem.Block, store uint64, done func(uint64)) {
	if l := c.cache.Lookup(b); l != nil {
		s := &l.State
		switch kind {
		case cpu.Load, cpu.IFetch:
			c.sys.ctr.l1Hit.Inc()
			c.cache.TouchLine(l)
			done(s.data)
			return
		default: // Store, Atomic
			if s.st == l1M || s.st == l1E {
				c.sys.ctr.l1Hit.Inc()
				c.cache.TouchLine(l)
				s.st = l1M // silent E→M upgrade
				old := s.data
				s.data = store
				s.dirty = true
				s.holdUntil = c.sys.Eng.Now() + hier.ResponseDelay
				if kind == cpu.Atomic {
					done(old)
				} else {
					done(0)
				}
				return
			}
		}
	}
	// Miss (or S-upgrade). Reserve the line now so the victim's writeback
	// overlaps the request.
	c.sys.ctr.l1Miss.Inc()
	c.reserve(b)
	c.txn, c.txnBlock = &l1Txn{kind: kind, store: store, done: done}, b
	var req int32 = kGetS
	if kind == cpu.Store || kind == cpu.Atomic {
		req = kGetM
	}
	c.sys.Net.SendNew(network.Message{
		Src:       c.id,
		Dst:       c.bank(b),
		Block:     b,
		Kind:      req,
		Class:     stats.Request,
		Requestor: c.id,
	})
}

// reserve installs a placeholder line for b, writing back any displaced
// owner line. It preserves existing state if b is already resident (an
// S-line upgrading to M keeps its data). It runs only with no miss
// outstanding, so no line is reserved by a transaction and any way may
// be the victim.
func (c *L1Ctrl) reserve(b mem.Block) {
	if c.cache.Lookup(b) != nil {
		return
	}
	if _, victim, vstate, wasEvicted := c.cache.Install(b); wasEvicted {
		c.evict(victim, vstate)
	}
}

// evict handles a displaced line: E and M lines start a three-phase
// writeback; S lines are dropped silently (the directory's sharer bit
// goes stale, which is benign).
func (c *L1Ctrl) evict(b mem.Block, st l1Line) {
	if st.st == l1S {
		return
	}
	c.sys.ctr.l1Writeback.Inc()
	c.wb[b] = &wbEntry{data: st.data, dirty: st.dirty, valid: true}
	c.sys.Net.SendNew(network.Message{
		Src:   c.id,
		Dst:   c.bank(b),
		Block: b,
		Kind:  kPut,
		Class: stats.WritebackControl,
	})
}

// dirL1Handle is the closure-free deferred-handling thunk: the L1
// holds the delivered message across its tag-access delay (and
// any response-delay hold) and frees it when handling completes.
func dirL1Handle(ctx, arg any) {
	c, m := ctx.(*L1Ctrl), arg.(*network.Message)
	if c.handle(m) {
		c.sys.Net.Free(m)
	}
}

// Recv implements network.Endpoint.
func (c *L1Ctrl) Recv(m *network.Message) {
	c.sys.Eng.ScheduleCall(hier.L1Latency, dirL1Handle, c, c.sys.Net.Hold(m))
}

// handle reports whether it is done with m — false means a
// response-delay hold re-deferred the message, keeping ownership.
func (c *L1Ctrl) handle(m *network.Message) bool {
	switch m.Kind {
	case kData, kGrant:
		c.handleGrant(m)
	case kFwdGetS:
		return c.handleFwdGetS(m)
	case kFwdGetM:
		return c.handleFwdGetM(m)
	case kInv:
		return c.handleInv(m)
	case kWbGrant:
		c.handleWbGrant(m)
	default:
		panic(fmt.Sprintf("directory: L1 %v cannot handle %s", c.id, kindName(m.Kind)))
	}
	return true
}

func (c *L1Ctrl) handleGrant(m *network.Message) {
	b := m.Block
	txn := c.txn
	if txn == nil || c.txnBlock != b {
		panic(fmt.Sprintf("directory: L1 %v got grant for %v with no transaction", c.id, b))
	}
	c.txn = nil
	l := c.cache.Lookup(b)
	if l == nil {
		panic(fmt.Sprintf("directory: L1 %v grant for unreserved line %v", c.id, b))
	}
	s := &l.State
	gst, _, _ := unpackAux(m.Aux)
	if m.HasData {
		s.data = m.Data
		s.dirty = m.Dirty
	}
	switch gst {
	case grantS:
		s.st = l1S
	case grantE:
		s.st = l1E
	case grantM:
		s.st = l1M
	}
	c.cache.TouchLine(l)

	var val uint64
	switch txn.kind {
	case cpu.Load, cpu.IFetch:
		val = s.data
	case cpu.Store:
		s.data = txn.store
		s.dirty = true
		s.holdUntil = c.sys.Eng.Now() + hier.ResponseDelay
	case cpu.Atomic:
		val = s.data
		s.data = txn.store
		s.dirty = true
		s.holdUntil = c.sys.Eng.Now() + hier.ResponseDelay
	}
	// Close the intra-CMP directory transaction.
	c.sys.Net.SendNew(network.Message{
		Src:   c.id,
		Dst:   c.bank(b),
		Block: b,
		Kind:  kUnblock,
		Class: stats.Unblock,
	})
	txn.done(val)
}

// stateOf finds the line in the cache or the writeback buffer.
func (c *L1Ctrl) stateOf(b mem.Block) (data uint64, dirty bool, inWb bool, l *l1Line) {
	if l := c.cache.Lookup(b); l != nil {
		return l.State.data, l.State.dirty, false, &l.State
	}
	if w := c.wb[b]; w != nil && w.valid {
		return w.data, w.dirty, true, nil
	}
	return 0, false, false, nil
}

// handleFwdGetS serves a read forward from the intra-CMP directory. The
// response routes through the L2 bank (the paper's hierarchical
// artifact). A modified line triggers the migratory optimization:
// invalidate and pass ownership.
func (c *L1Ctrl) handleFwdGetS(m *network.Message) bool {
	b := m.Block
	data, dirty, inWb, l := c.stateOf(b)
	if l != nil && l.holdUntil > c.sys.Eng.Now() {
		c.sys.Eng.ScheduleCallAt(l.holdUntil, dirL1Handle, c, m)
		return false
	}
	migratory := false
	switch {
	case l != nil && l.st == l1M && l.dirty:
		// Migratory sharing: invalidate our copy, pass read/write access.
		migratory = true
		c.sys.ctr.migratory.Inc()
		c.cache.Invalidate(b)
	case l != nil:
		l.st = l1S // degrade; L2 becomes the on-chip owner of the data
	case inWb:
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
		Class:   stats.ResponseData,
		HasData: true,
		Data:    data,
		Dirty:   dirty,
		Aux:     packAux(grantS, 0, migratory),
		Proc:    m.Proc,
	})
	return true
}

// handleFwdGetM serves a write forward: send data to the L2 bank and
// invalidate.
func (c *L1Ctrl) handleFwdGetM(m *network.Message) bool {
	b := m.Block
	data, dirty, inWb, l := c.stateOf(b)
	if l != nil && l.holdUntil > c.sys.Eng.Now() {
		c.sys.Eng.ScheduleCallAt(l.holdUntil, dirL1Handle, c, m)
		return false
	}
	switch {
	case l != nil:
		c.cache.Invalidate(b)
	case inWb:
		c.wb[b].valid = false // consumed; PUT will be cancelled
	default:
		panic(fmt.Sprintf("directory: L1 %v FwdGetM for absent %v", c.id, b))
	}
	c.sys.Net.SendNew(network.Message{
		Src:     c.id,
		Dst:     m.Src,
		Block:   b,
		Kind:    kFwdResp,
		Class:   stats.ResponseData,
		HasData: true,
		Data:    data,
		Dirty:   dirty,
		Aux:     packAux(grantM, 0, false),
		Proc:    m.Proc,
	})
	return true
}

// handleInv invalidates a (possibly stale) sharer entry and acks to the
// collector named in Requestor.
func (c *L1Ctrl) handleInv(m *network.Message) bool {
	b := m.Block
	if l := c.cache.Lookup(b); l != nil && c.txnFor(b) == nil {
		if l.State.holdUntil > c.sys.Eng.Now() {
			c.sys.Eng.ScheduleCallAt(l.State.holdUntil, dirL1Handle, c, m)
			return false
		}
		c.cache.Invalidate(b)
	} else if w := c.wb[b]; w != nil {
		w.valid = false
	}
	c.sys.Net.SendNew(network.Message{
		Src:   c.id,
		Dst:   m.Requestor,
		Block: b,
		Kind:  kInvAck,
		Class: stats.InvFwdAckTokens,
		Proc:  m.Proc,
	})
	return true
}

// handleWbGrant completes (or cancels) a three-phase writeback.
func (c *L1Ctrl) handleWbGrant(m *network.Message) {
	b := m.Block
	w := c.wb[b]
	if w == nil {
		panic(fmt.Sprintf("directory: L1 %v WbGrant without PUT for %v", c.id, b))
	}
	delete(c.wb, b)
	if !w.valid {
		c.sys.ctr.wbRace.Inc()
		c.sys.Net.SendNew(network.Message{
			Src:   c.id,
			Dst:   m.Src,
			Block: b,
			Kind:  kWbCancel,
			Class: stats.WritebackControl,
		})
		return
	}
	c.sys.Net.SendNew(network.Message{
		Src:     c.id,
		Dst:     m.Src,
		Block:   b,
		Kind:    kWbData,
		Class:   stats.WritebackData,
		HasData: true,
		Data:    w.data,
		Dirty:   w.dirty,
	})
}
