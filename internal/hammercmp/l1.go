package hammercmp

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

// lineState is the MOESI stable state of a cache line. The zero value
// hI doubles as the placeholder state of a line reserved by an
// outstanding transaction: probes treat it as absent.
type lineState int

const (
	hI lineState = iota
	hS
	hE
	hM
	hO
)

func (s lineState) String() string { return [...]string{"I", "S", "E", "M", "O"}[s] }

// owner reports whether the state obliges the holder to answer probes
// with data.
func (s lineState) owner() bool { return s == hE || s == hM || s == hO }

// l1Line is an L1 cache line.
type l1Line struct {
	st        lineState
	data      uint64
	dirty     bool
	holdUntil sim.Time // response-delay mechanism
}

// l1Txn is the single outstanding miss transaction: the broadcast
// collection state. The transaction completes when every other cache
// has responded (got == peers) and the speculative memory response has
// arrived.
type l1Txn struct {
	kind  cpu.AccessKind
	store uint64
	done  func(uint64)

	got       int // cache responses collected (acks and data)
	memGot    bool
	dataGot   bool
	data      uint64
	dataDirty bool
	migr      bool
	shared    bool
	memData   uint64
}

// wbEntry buffers a three-phase writeback awaiting its grant. Entries
// for one block form a FIFO: a line can be re-acquired and re-evicted
// before the first writeback's grant arrives, and per-link delivery
// order guarantees grants consume entries front-first. At most the
// newest entry is valid.
type wbEntry struct {
	data  uint64
	dirty bool
	excl  bool // the evicted line was M (not O)
	valid bool // cleared if a probe consumed the copy
}

// validWb returns the valid entry of a writeback FIFO, if any.
func validWb(q []*wbEntry) *wbEntry {
	for _, w := range q {
		if w.valid {
			return w
		}
	}
	return nil
}

// popWbAndReply pops the front entry of the granted block's writeback
// FIFO in wb and answers the grantor (gm.Src) with WbData — or
// WbCancel, if a probe consumed the buffered copy — on behalf of src.
// Both L1s (writing back to their L2 bank) and L2 banks (spilling to
// the home) share this third phase.
func popWbAndReply(sys *System, src topo.NodeID, wb map[mem.Block][]*wbEntry, gm *network.Message) {
	b := gm.Block
	q := wb[b]
	if len(q) == 0 {
		panic(fmt.Sprintf("hammercmp: %v WbGrant without Put for %v", src, b))
	}
	w := q[0]
	if len(q) == 1 {
		delete(wb, b)
	} else {
		wb[b] = q[1:]
	}
	if !w.valid {
		sys.ctr.wbRace.Inc()
		sys.Net.SendNew(network.Message{
			Src:   src,
			Dst:   gm.Src,
			Block: b,
			Kind:  kWbCancel,
			Class: stats.WritebackControl,
		})
		return
	}
	var aux int32
	if w.excl {
		aux = auxExcl
	}
	sys.Net.SendNew(network.Message{
		Src:     src,
		Dst:     gm.Src,
		Block:   b,
		Kind:    kWbData,
		Class:   stats.WritebackData,
		HasData: true,
		Data:    w.data,
		Dirty:   w.dirty,
		Aux:     aux,
	})
}

// L1Ctrl is a HammerCMP L1 cache controller: a MOESI cache that
// requests through the home memory controller and collects the
// broadcast's fan-in of per-cache responses.
type L1Ctrl struct {
	id        topo.NodeID
	sys       *System
	isInstr   bool
	cmp, proc int
	peers     int // caches other than this one = expected probe responses

	cache    *cache.Array[l1Line]
	txn      *l1Txn    // the outstanding miss, if any
	txnBlock mem.Block // the block txn is for
	wb       map[mem.Block][]*wbEntry

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
		peers:   len(sys.caches) - 1,
		cache:   cache.New[l1Line](sys.L1Params()),
		wb:      make(map[mem.Block][]*wbEntry),
	}
}

// bank returns this CMP's L2 bank serving block b (the writeback
// target).
func (c *L1Ctrl) bank(b mem.Block) topo.NodeID {
	return c.sys.Geom.L2BankFor(c.cmp, b)
}

// txnFor returns the outstanding miss for b, or nil.
func (c *L1Ctrl) txnFor(b mem.Block) *l1Txn {
	if c.txnBlock != b {
		return nil
	}
	return c.txn
}

// home returns block b's home memory controller (the broadcast
// serialization point).
func (c *L1Ctrl) home(b mem.Block) topo.NodeID { return c.sys.Geom.HomeMem(b) }

// Access implements cpu.MemPort.
func (c *L1Ctrl) Access(kind cpu.AccessKind, addr mem.Addr, store uint64, done func(uint64)) {
	if c.isInstr && kind != cpu.IFetch {
		panic("hammercmp: data access routed to L1I")
	}
	b := mem.BlockOf(addr)
	if c.txn != nil {
		panic(fmt.Sprintf("hammercmp: L1 %v already busy on %v", c.id, c.txnBlock))
	}
	c.pend.Park("hammercmp: L1", kind, b, store, done)
	c.sys.Eng.ScheduleCall(hier.L1Latency, l1AttemptCall, c, nil)
}

func (c *L1Ctrl) attempt(kind cpu.AccessKind, b mem.Block, store uint64, done func(uint64)) {
	if l := c.cache.Lookup(b); l != nil && l.State.st != hI {
		s := &l.State
		switch kind {
		case cpu.Load, cpu.IFetch:
			c.sys.ctr.l1Hit.Inc()
			c.cache.TouchLine(l)
			done(s.data)
			return
		default: // Store, Atomic
			if s.st == hM || s.st == hE {
				c.sys.ctr.l1Hit.Inc()
				c.cache.TouchLine(l)
				s.st = hM // silent E→M upgrade
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
			// S or O: write permission requires a broadcast upgrade.
		}
	}
	// Miss (or upgrade). Reserve the line now so the victim's writeback
	// overlaps the broadcast.
	c.sys.ctr.l1Miss.Inc()
	c.reserve(b)
	c.txn, c.txnBlock = &l1Txn{kind: kind, store: store, done: done}, b
	var req int32 = kGetS
	if kind == cpu.Store || kind == cpu.Atomic {
		req = kGetM
	}
	c.sys.Net.SendNew(network.Message{
		Src:       c.id,
		Dst:       c.home(b),
		Block:     b,
		Kind:      req,
		Class:     stats.Request,
		Requestor: c.id,
	})
}

// reserve installs a line for b, writing back any displaced owner
// line. It preserves existing state if b is already resident (an S or
// O line upgrading keeps its data). It runs only with no miss
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

// evict handles a displaced line: M and O lines start a three-phase
// writeback to the local L2 bank; E and S lines drop silently (E is
// clean — a silent store would have made it M — and a dropped copy
// simply acks not-present to future probes).
func (c *L1Ctrl) evict(b mem.Block, st l1Line) {
	if st.st != hM && st.st != hO {
		return
	}
	c.sys.ctr.l1Writeback.Inc()
	c.wb[b] = append(c.wb[b], &wbEntry{data: st.data, dirty: st.dirty, excl: st.st == hM, valid: true})
	c.sys.Net.SendNew(network.Message{
		Src:   c.id,
		Dst:   c.bank(b),
		Block: b,
		Kind:  kPut,
		Class: stats.WritebackControl,
	})
}

// hammerL1Handle is the closure-free deferred-handling thunk: the L1
// holds the delivered message across its tag-access delay (and
// any response-delay hold) and frees it when handling completes.
func hammerL1Handle(ctx, arg any) {
	c, m := ctx.(*L1Ctrl), arg.(*network.Message)
	if c.handle(m) {
		c.sys.Net.Free(m)
	}
}

// Recv implements network.Endpoint.
func (c *L1Ctrl) Recv(m *network.Message) {
	c.sys.Eng.ScheduleCall(hier.L1Latency, hammerL1Handle, c, c.sys.Net.Hold(m))
}

// handle reports whether it is done with m — false means a
// response-delay hold re-deferred the probe, keeping ownership.
func (c *L1Ctrl) handle(m *network.Message) bool {
	switch m.Kind {
	case kAck, kData:
		c.handleResponse(m)
	case kMemData:
		c.handleMemData(m)
	case kProbeS, kProbeM:
		return c.handleProbe(m)
	case kWbGrant:
		c.handleWbGrant(m)
	default:
		panic(fmt.Sprintf("hammercmp: L1 %v cannot handle %s", c.id, kindName(m.Kind)))
	}
	return true
}

// handleResponse folds one probe response into the broadcast
// collection.
func (c *L1Ctrl) handleResponse(m *network.Message) {
	txn := c.txnFor(m.Block)
	if txn == nil {
		panic(fmt.Sprintf("hammercmp: L1 %v stray %s for %v", c.id, kindName(m.Kind), m.Block))
	}
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
	txn := c.txnFor(m.Block)
	if txn == nil {
		panic(fmt.Sprintf("hammercmp: L1 %v stray MemData for %v", c.id, m.Block))
	}
	txn.memGot = true
	txn.memData = m.Data
	c.maybeComplete(m.Block, txn)
}

// maybeComplete finishes the transaction once every cache and the
// memory have answered. Data preference: a cache data response (the
// current owner), then our own surviving copy (an upgrade whose line
// was not invalidated), then our own pending writeback (the line left
// the cache but its data never left this controller), and only then
// the speculative — possibly stale — memory data.
func (c *L1Ctrl) maybeComplete(b mem.Block, txn *l1Txn) {
	if txn.got < c.peers || !txn.memGot {
		return
	}
	c.txn = nil
	l := c.cache.Lookup(b)
	if l == nil {
		panic(fmt.Sprintf("hammercmp: L1 %v completion without reserved line for %v", c.id, b))
	}
	s := &l.State

	var val uint64
	var dirty, fromWb bool
	switch {
	case txn.dataGot:
		val, dirty = txn.data, txn.dataDirty
	case s.st != hI:
		val, dirty = s.data, s.dirty
	default:
		if w := validWb(c.wb[b]); w != nil {
			// We still own the block: the eviction's data never left.
			// Consume the buffered copy (its Put will be cancelled) so
			// ownership is not duplicated at the writeback target.
			val, dirty, fromWb = w.data, true, true
			w.valid = false
		} else {
			val, dirty = txn.memData, false
		}
	}

	switch txn.kind {
	case cpu.Load, cpu.IFetch:
		switch {
		case txn.migr:
			// Migratory handoff: the modified owner invalidated itself
			// and passed write permission with the data.
			c.sys.ctr.migratory.Inc()
			s.st = hM
			s.dirty = true
		case fromWb:
			// Still the owner of the dirty data, but not exclusive: a
			// ProbeS may have handed shared copies out of the departure
			// buffer while it sat valid.
			s.st = hO
			s.dirty = true
		case txn.dataGot || txn.shared || s.st != hI:
			s.st = hS
			s.dirty = dirty
		default:
			// Nobody holds a copy: exclusive-clean from memory.
			s.st = hE
			s.dirty = false
		}
		s.data = val
	case cpu.Store, cpu.Atomic:
		s.st = hM
		s.data = txn.store
		s.dirty = true
		s.holdUntil = c.sys.Eng.Now() + hier.ResponseDelay
	}
	c.cache.TouchLine(l)

	// Release the home's per-block serialization.
	c.sys.Net.SendNew(network.Message{
		Src:   c.id,
		Dst:   c.home(b),
		Block: b,
		Kind:  kDone,
		Class: stats.Unblock,
	})
	switch txn.kind {
	case cpu.Atomic:
		txn.done(val)
	case cpu.Store:
		txn.done(0)
	default:
		txn.done(val)
	}
}

// handleProbe answers a broadcast probe: data if we own the block (in
// the cache or in a pending writeback), an acknowledgment otherwise.
func (c *L1Ctrl) handleProbe(m *network.Message) bool {
	b := m.Block
	if l := c.cache.Lookup(b); l != nil && l.State.st != hI {
		s := &l.State
		if s.holdUntil > c.sys.Eng.Now() {
			c.sys.Eng.ScheduleCallAt(s.holdUntil, hammerL1Handle, c, m)
			return false
		}
		if m.Kind == kProbeS {
			switch s.st {
			case hM:
				// Migratory sharing: invalidate and pass write
				// permission with the dirty data.
				c.respondData(m, s.data, true, auxMigr)
				c.invalidate(b, l)
			case hO:
				c.respondData(m, s.data, s.dirty, 0)
			case hE:
				c.respondData(m, s.data, false, 0)
				s.st = hS
			default: // hS
				c.respondAck(m, auxShared)
			}
			return true
		}
		// ProbeM: surrender the copy; owners supply the data.
		if s.st.owner() {
			c.respondData(m, s.data, s.dirty, 0)
		} else {
			c.respondAck(m, auxShared)
		}
		c.invalidate(b, l)
		return true
	}
	// The copy may live in a pending writeback.
	if w := validWb(c.wb[b]); w != nil {
		c.respondData(m, w.data, w.dirty, 0)
		if m.Kind == kProbeM {
			w.valid = false // consumed; the Put will be cancelled
		} else {
			// A shared copy now exists: the buffered line must install
			// downstream as O, not M.
			w.excl = false
		}
		return true
	}
	c.respondAck(m, 0)
	return true
}

// invalidate drops our copy, preserving a placeholder line when a
// transaction is outstanding on the block.
func (c *L1Ctrl) invalidate(b mem.Block, l *cache.Line[l1Line]) {
	if c.txnFor(b) != nil {
		l.State.st = hI
		l.State.dirty = false
		return
	}
	c.cache.Invalidate(b)
}

func (c *L1Ctrl) respondData(m *network.Message, data uint64, dirty bool, aux int32) {
	c.sys.ctr.probeData.Inc()
	c.sys.Net.SendNew(network.Message{
		Src:     c.id,
		Dst:     m.Requestor,
		Block:   m.Block,
		Kind:    kData,
		Class:   stats.ResponseData,
		HasData: true,
		Data:    data,
		Dirty:   dirty,
		Aux:     aux | auxShared,
	})
}

func (c *L1Ctrl) respondAck(m *network.Message, aux int32) {
	c.sys.ctr.probeAck.Inc()
	c.sys.Net.SendNew(network.Message{
		Src:   c.id,
		Dst:   m.Requestor,
		Block: m.Block,
		Kind:  kAck,
		Class: stats.InvFwdAckTokens,
		Aux:   aux,
	})
}

// handleWbGrant completes (or cancels) the front entry of the block's
// three-phase writeback FIFO.
func (c *L1Ctrl) handleWbGrant(m *network.Message) {
	popWbAndReply(c.sys, c.id, c.wb, m)
}
