package directory

import (
	"fmt"
	"math/bits"

	"tokencmp/internal/blocktab"
	"tokencmp/internal/cache"
	"tokencmp/internal/hier"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/topo"
)

// Service tags (carried in Message.Proc) distinguish the collector of
// invalidation acks and forward responses when a local transaction, a
// home-initiated external service, and an eviction recall could overlap
// on the same block.
const (
	tagTxn   = iota // local L1 transaction at this bank
	tagExt          // home-initiated forward/invalidate service
	tagEvict        // L2 eviction recall
	tagInter        // chip-to-chip invalidation ack (to the requesting L2)
)

// chipState is the CMP's collective permission for a block, tracked in
// the L2 line alongside the intra-CMP directory (local owner + sharers).
type chipState int

const (
	csI chipState = iota
	csS
	csE
	csM
	csO
)

func (s chipState) String() string { return [...]string{"I", "S", "E", "M", "O"}[s] }

// l2Line is an L2 bank line with the intra-CMP directory entry.
type l2Line struct {
	cs      chipState
	hasData bool
	data    uint64
	dirty   bool
	ownerL1 topo.NodeID // local L1 holding E/M, or topo.None (L2 holds the data)
	sharers uint64      // local L1 sharer bits (excluding ownerL1)
	pinned  bool        // part of an in-flight transaction; not evictable
}

// l2Txn is one local transaction (GetS/GetM from a local L1, or the
// data window of an L1's PUT), held by value in the serializer's busy
// record.
type l2Txn struct {
	requestor topo.NodeID // the requesting L1 (from the GetS/GetM)
	kind      int32
	seq       uint64 // this transaction's number at the bank

	fwdPending   bool
	interPending bool
	localAcks    int

	// Inter-CMP grant payload, held until all chip acks arrive.
	interGot      bool
	interState    grantState
	interMigr     bool
	interHasData  bool
	interData     uint64
	interDirty    bool
	interAcksNeed int
	interAcksGot  int

	// Local grant decision inputs.
	migr bool
}

// extSrv is a home-initiated service (forward or invalidate) or an
// eviction recall, which runs concurrently with inter-pending local
// transactions but serializes with purely-local ones.
type extSrv struct {
	kind    int32 // kFwdGetS, kFwdGetM, kInv, or -1 for eviction recall
	replyTo topo.NodeID
	acks    int // local invalidation acks outstanding
	fwdWait bool
	acksFor int // inter ack count to forward in our data reply (FwdGetM)

	// Collected data (for recalls and forwards).
	hasData bool
	data    uint64
	dirty   bool
	migr    bool
	// prevOwner is the local L1 that owned the line before a FwdGetS
	// degraded it to S; it must join the sharer set.
	prevOwner topo.NodeID

	// Eviction recall bookkeeping.
	evState l2Line

	// Home forwards arriving while this service (an eviction) runs,
	// copied per the ownership contract.
	pendingHome []network.Message
}

// L2Ctrl is a DirectoryCMP L2 bank: a shared cache slice plus the
// intra-CMP directory for its blocks, and the chip's agent in the
// inter-CMP protocol.
type L2Ctrl struct {
	id        topo.NodeID
	sys       *System
	cmp, bank int

	cache *cache.Array[l2Line]
	ser   hier.Serializer[l2Txn] // local transactions and the messages deferred behind them
	ext   blocktab.Table[extSrv]
	wb    hier.WbBuffer // our three-phase PUTs to home

	txns    uint64         // local transactions started, numbering them
	retries hier.BlockArgs // payloads of pending goInter retries
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

// busy returns the local transaction on b, or nil.
func (c *L2Ctrl) busy(b mem.Block) *l2Txn { return c.ser.Busy(b) }

// start begins a local transaction of kind on b for requestor.
func (c *L2Ctrl) start(b mem.Block, requestor topo.NodeID, kind int32) *l2Txn {
	c.txns++
	return c.ser.Start(b, l2Txn{requestor: requestor, kind: kind, seq: c.txns})
}

func (c *L2Ctrl) lookup(b mem.Block) *l2Line {
	if l := c.cache.Lookup(b); l != nil {
		return &l.State
	}
	return nil
}

func (c *L2Ctrl) home(b mem.Block) topo.NodeID { return c.sys.Geom.HomeMem(b) }

// Recv implements network.Endpoint. The network calls it after the
// bank's tag-access delay, which every kind waits out (see kinds).
// Queued messages are copied by value, so the borrowed message never
// outlives Recv.
func (c *L2Ctrl) Recv(m *network.Message) {
	switch m.Kind {
	case kGetS, kGetM:
		c.admitLocal(m)
	case kFwdResp:
		c.handleFwdResp(m)
	case kInvAck:
		c.handleInvAck(m)
	case kData, kGrant:
		c.handleInterGrant(m)
	case kFwdGetS, kFwdGetM:
		c.admitHomeFwd(m)
	case kInv:
		c.admitHomeInv(m)
	case kUnblock:
		c.handleUnblock(m)
	case kPut:
		c.handlePut(m)
	case kWbGrant:
		c.wb.Grant(m)
	case kWbData, kWbCancel:
		c.handleWbData(m)
	default:
		panic(fmt.Sprintf("directory: L2 %v cannot handle %s", c.id, kinds.Name(m.Kind)))
	}
}

// admitLocal starts a local transaction or defers it behind the block's
// current activity.
func (c *L2Ctrl) admitLocal(m *network.Message) {
	b := m.Block
	if c.busy(b) != nil || c.ext.Peek(b) != nil {
		c.ser.Defer(m)
		return
	}
	c.startLocal(m)
}

func (c *L2Ctrl) startLocal(m *network.Message) {
	b := m.Block
	txn := c.start(b, m.Requestor, m.Kind)
	line := c.lookup(b)
	if line != nil {
		line.pinned = true
	}

	if m.Kind == kGetS {
		switch {
		case line != nil && line.cs != csI && line.ownerL1 != topo.None && line.ownerL1 != m.Requestor:
			txn.fwdPending = true
			c.sendToL1(line.ownerL1, b, kFwdGetS, tagTxn, 0)
		case line != nil && line.cs != csI && line.hasData:
			c.grantLocal(b, txn)
		default:
			// No valid copy on chip, or the requester is the registered
			// owner yet missed: its copy was consumed (writeback raced).
			// Re-supply via home.
			c.goInter(b, txn)
		}
		return
	}

	switch {
	case line != nil && (line.cs == csM || line.cs == csE):
		if line.ownerL1 != topo.None && line.ownerL1 != m.Requestor {
			txn.fwdPending = true
			c.sendToL1(line.ownerL1, b, kFwdGetM, tagTxn, 0)
			return
		}
		c.invalidateLocalSharers(b, txn)
		if txn.localAcks == 0 {
			c.grantLocal(b, txn)
		}
	default:
		c.goInter(b, txn)
	}
}

func (c *L2Ctrl) sendToL1(dst topo.NodeID, b mem.Block, kind, tag, aux int32) {
	c.sys.Net.SendNew(network.Message{
		Src:       c.id,
		Dst:       dst,
		Block:     b,
		Kind:      kind,
		Requestor: c.id,
		Proc:      tag,
		Aux:       aux,
	})
}

// invalidateL1s sends an invalidation of b for collector tag to every
// local L1 in the sharer mask, lowest bit first, and returns how many
// it sent.
func (c *L2Ctrl) invalidateL1s(b mem.Block, mask uint64, tag int32) int {
	for m := mask; m != 0; m &= m - 1 {
		c.sendToL1(c.sys.Geom.L1FromBit(c.cmp, bits.TrailingZeros64(m)), b, kInv, tag, 0)
	}
	return bits.OnesCount64(mask)
}

// invalidateLocalSharers sends txn-tagged invalidations to every local
// sharer except the requester.
func (c *L2Ctrl) invalidateLocalSharers(b mem.Block, txn *l2Txn) {
	line := c.lookup(b)
	if line == nil {
		return
	}
	mask := line.sharers &^ c.sys.Geom.L1Bit(txn.requestor)
	txn.localAcks += c.invalidateL1s(b, mask, tagTxn)
	line.sharers &^= mask
}

// grantLocal completes a local transaction by granting the requester.
func (c *L2Ctrl) grantLocal(b mem.Block, txn *l2Txn) {
	line := c.lookup(b)
	if line == nil {
		panic(fmt.Sprintf("directory: L2 %v grantLocal without line for %v", c.id, b))
	}
	req := txn.requestor
	reqBit := c.sys.Geom.L1Bit(req)

	var gst grantState
	withData := true
	switch {
	case txn.kind == kGetM:
		gst = grantM
		withData = line.sharers&reqBit == 0
		line.sharers &^= reqBit
		line.ownerL1 = req
		line.cs = csM
	case txn.migr:
		// Migratory read: pass exclusive ownership.
		gst = grantM
		c.sys.ctr.migratory.Inc()
		line.ownerL1 = req
		line.cs = csM
	case (line.cs == csM || line.cs == csE) && line.ownerL1 == topo.None && line.sharers == 0:
		gst = grantE
		line.ownerL1 = req
	default:
		gst = grantS
		line.sharers |= reqBit
	}

	msg := network.Message{
		Src:       c.id,
		Dst:       req,
		Block:     b,
		Kind:      kGrant,
		Aux:       packAux(gst, 0, false),
		Requestor: req,
	}
	if withData {
		msg.Kind = kData
		msg.HasData = true
		msg.Data = line.data
		msg.Dirty = line.dirty
	}
	if gst == grantE || gst == grantM {
		// An exclusive holder may modify silently; the L2 copy is no
		// longer authoritative.
		line.hasData = false
	}
	c.sys.Net.SendNew(msg)
	// Remain busy until the L1's unblock.
}

// goInter escalates to the inter-CMP directory at the block's home.
func (c *L2Ctrl) goInter(b mem.Block, txn *l2Txn) {
	if !c.reserve(b) {
		// Set conflict with unfinishable eviction right now; retry.
		c.sys.Eng.ScheduleCall(hier.L2Latency, dirL2Retry, c, c.retries.New(b, txn.seq))
		return
	}
	txn.interPending = true
	c.sys.Net.SendNew(network.Message{
		Src:       c.id,
		Dst:       c.home(b),
		Block:     b,
		Kind:      txn.kind,
		Requestor: c.id,
	})
}

// dirL2Retry is goInter's closure-free retry thunk: it retries only if
// the transaction that failed to reserve a line is still the block's.
func dirL2Retry(ctx, arg any) {
	c := ctx.(*L2Ctrl)
	b, seq := c.retries.Take(arg.(*hier.BlockArg))
	if txn := c.busy(b); txn != nil && txn.seq == seq {
		c.goInter(b, txn)
	}
}

// reserve pins a line for b, evicting a victim (with recall) if needed.
// It reports false if no way is currently evictable.
func (c *L2Ctrl) reserve(b mem.Block) bool {
	if l := c.cache.Lookup(b); l != nil {
		l.State.pinned = true
		return true
	}
	line, victim, vstate, wasEvicted, ok := c.cache.InstallAvoiding(b, func(st *l2Line) bool { return st.pinned })
	if !ok {
		return false
	}
	line.State.pinned = true
	line.State.ownerL1 = topo.None
	if wasEvicted {
		c.recall(victim, vstate)
	}
	return true
}

// recall evicts a victim line: invalidate local L1 copies (collecting
// data from a local owner), then write owned data back to the home via a
// three-phase PUT.
func (c *L2Ctrl) recall(v mem.Block, st l2Line) {
	srv := c.ext.At(v)
	*srv = extSrv{kind: -1, evState: st, hasData: st.hasData, data: st.data, dirty: st.dirty}
	if st.ownerL1 != topo.None {
		srv.fwdWait = true
		c.sendToL1(st.ownerL1, v, kFwdGetM, tagEvict, 0)
	}
	srv.acks += c.invalidateL1s(v, st.sharers, tagEvict)
	c.finishRecallIfDone(v, srv)
}

func (c *L2Ctrl) finishRecallIfDone(v mem.Block, srv *extSrv) {
	if srv.fwdWait || srv.acks > 0 {
		return
	}
	st := srv.evState
	owned := st.cs == csM || st.cs == csE || st.cs == csO
	if owned {
		c.sys.ctr.l2Writeback.Inc()
		c.wb.Put(c.home(v), v, srv.data, srv.dirty, false)
	}
	pending := srv.pendingHome
	c.ext.Delete(v)
	// Home forwards that arrived mid-recall are served now (from the
	// writeback buffer) — re-admit them.
	for i := range pending {
		hm := pending[i]
		c.Recv(&hm)
	}
	c.drain(v)
}

// handleFwdResp routes a local L1's forward response to its collector.
func (c *L2Ctrl) handleFwdResp(m *network.Message) {
	b := m.Block
	_, _, migr := unpackAux(m.Aux)
	switch m.Proc {
	case tagTxn:
		txn := c.busy(b)
		if txn == nil || !txn.fwdPending {
			panic(fmt.Sprintf("directory: L2 %v stray FwdResp for %v", c.id, b))
		}
		txn.fwdPending = false
		line := c.lookup(b)
		line.data = m.Data
		line.dirty = m.Dirty
		line.hasData = true
		txn.migr = migr
		prevOwner := line.ownerL1
		line.ownerL1 = topo.None
		if txn.kind == kGetS && !migr && prevOwner != topo.None {
			line.sharers |= c.sys.Geom.L1Bit(prevOwner) // owner degraded to S
		}
		if txn.kind == kGetM {
			// Remaining local sharers must go before the grant.
			c.invalidateLocalSharers(b, txn)
			if txn.localAcks > 0 {
				return
			}
		}
		c.grantLocal(b, txn)
	case tagExt, tagEvict:
		srv := c.service(m)
		srv.fwdWait = false
		srv.hasData = true
		srv.data = m.Data
		srv.dirty = m.Dirty
		srv.migr = migr // a recall's FwdGetM response is never migratory
		c.finishServiceIfDone(m, srv)
	default:
		panic("directory: bad FwdResp tag")
	}
}

// service returns the home service (tagExt) or eviction recall
// (tagEvict) collecting m, a forward response or an invalidation ack.
func (c *L2Ctrl) service(m *network.Message) *extSrv {
	srv := c.ext.Peek(m.Block)
	if srv == nil {
		panic(fmt.Sprintf("directory: L2 %v stray %s (tag %d) for %v", c.id, kinds.Name(m.Kind), m.Proc, m.Block))
	}
	return srv
}

// finishServiceIfDone completes the service collecting m once it has
// collected everything.
func (c *L2Ctrl) finishServiceIfDone(m *network.Message, srv *extSrv) {
	if m.Proc == tagEvict {
		c.finishRecallIfDone(m.Block, srv)
	} else {
		c.finishExtIfDone(m.Block, srv)
	}
}

// handleInvAck routes an invalidation ack to its collector.
func (c *L2Ctrl) handleInvAck(m *network.Message) {
	b := m.Block
	switch m.Proc {
	case tagTxn:
		txn := c.busy(b)
		if txn == nil {
			panic(fmt.Sprintf("directory: L2 %v stray local InvAck for %v", c.id, b))
		}
		txn.localAcks--
		if txn.localAcks == 0 && !txn.fwdPending {
			c.grantLocal(b, txn)
		}
	case tagExt, tagEvict:
		srv := c.service(m)
		srv.acks--
		c.finishServiceIfDone(m, srv)
	case tagInter:
		txn := c.busy(b)
		if txn == nil || !txn.interPending {
			panic(fmt.Sprintf("directory: L2 %v stray inter InvAck for %v", c.id, b))
		}
		txn.interAcksGot++
		c.finishInterIfDone(b, txn)
	default:
		panic("directory: bad InvAck tag")
	}
}

// handleInterGrant receives the home's (or owner chip's) grant for our
// inter-CMP request.
func (c *L2Ctrl) handleInterGrant(m *network.Message) {
	b := m.Block
	txn := c.busy(b)
	if txn == nil || !txn.interPending {
		panic(fmt.Sprintf("directory: L2 %v stray inter grant for %v", c.id, b))
	}
	gst, acks, migr := unpackAux(m.Aux)
	txn.interGot = true
	txn.interState = gst
	txn.interMigr = migr
	txn.interHasData = m.HasData
	txn.interData = m.Data
	txn.interDirty = m.Dirty
	txn.interAcksNeed = acks
	c.finishInterIfDone(b, txn)
}

func (c *L2Ctrl) finishInterIfDone(b mem.Block, txn *l2Txn) {
	if !txn.interGot || txn.interAcksGot < txn.interAcksNeed {
		return
	}
	txn.interPending = false

	// Fold the grant into the line and tell the home we are done.
	line := c.lookup(b)
	if line == nil {
		panic(fmt.Sprintf("directory: L2 %v inter grant without reserved line for %v", c.id, b))
	}
	var result grantState
	switch {
	case txn.kind == kGetM:
		line.cs = csM
		result = grantM
	case txn.interMigr:
		line.cs = csM
		result = grantM
		txn.migr = true
	case txn.interState == grantE:
		line.cs = csE
		result = grantE
	default:
		line.cs = csS
		result = grantS
	}
	if txn.interHasData {
		line.hasData = true
		line.data = txn.interData
		line.dirty = txn.interDirty
	}
	c.sys.Net.SendNew(network.Message{
		Src:   c.id,
		Dst:   c.home(b),
		Block: b,
		Kind:  kUnblock,
		Aux:   packAux(result, 0, txn.interMigr),
	})

	if txn.kind == kGetM {
		c.invalidateLocalSharers(b, txn)
		if txn.localAcks > 0 {
			return
		}
	}
	c.grantLocal(b, txn)
}

// handleUnblock closes a local transaction.
func (c *L2Ctrl) handleUnblock(m *network.Message) {
	b := m.Block
	if c.busy(b) == nil {
		panic(fmt.Sprintf("directory: L2 %v unblock without transaction for %v", c.id, b))
	}
	c.ser.End(b)
	if line := c.lookup(b); line != nil {
		line.pinned = c.ext.Peek(b) != nil
	}
	c.drain(b)
}

// drain admits the next deferred message for b, if the block is idle.
func (c *L2Ctrl) drain(b mem.Block) {
	for c.busy(b) == nil && c.ext.Peek(b) == nil {
		m, ok := c.ser.Pop(b)
		if !ok {
			return
		}
		c.Recv(&m)
	}
}

// admitHomeFwd handles a forward from the home directory (we are the
// owner chip). It runs immediately unless a purely-local transaction or
// an eviction recall holds the block.
func (c *L2Ctrl) admitHomeFwd(m *network.Message) {
	b := m.Block
	if srv := c.ext.Peek(b); srv != nil {
		if srv.kind == -1 {
			srv.pendingHome = append(srv.pendingHome, *m)
			return
		}
		panic(fmt.Sprintf("directory: L2 %v overlapping home services for %v", c.id, b))
	}
	if txn := c.busy(b); txn != nil && !txn.interPending {
		c.ser.Defer(m)
		return
	}
	c.startHomeFwd(m)
}

func (c *L2Ctrl) startHomeFwd(m *network.Message) {
	b := m.Block
	line := c.lookup(b)

	// Data may live in our writeback buffer (PUT racing with the fwd).
	if line == nil || !(line.cs == csM || line.cs == csE || line.cs == csO) || (!line.hasData && line.ownerL1 == topo.None) {
		if w := c.wb.Valid(b); w != nil {
			c.serveFwdFromWb(m, w)
			return
		}
		panic(fmt.Sprintf("directory: L2 %v owner-forward %s for %v without data", c.id, kinds.Name(m.Kind), b))
	}

	_, acks, _ := unpackAux(m.Aux)
	srv := c.ext.At(b)
	*srv = extSrv{kind: m.Kind, replyTo: m.Requestor, acksFor: acks}
	line.pinned = true

	if m.Kind == kFwdGetM {
		if line.ownerL1 != topo.None {
			srv.fwdWait = true
			c.sendToL1(line.ownerL1, b, kFwdGetM, tagExt, 0)
		} else {
			srv.hasData = true
			srv.data = line.data
			srv.dirty = line.dirty
		}
		srv.acks += c.invalidateL1s(b, line.sharers, tagExt)
		line.sharers = 0
		c.finishExtIfDone(b, srv)
		return
	}

	// FwdGetS.
	if line.ownerL1 != topo.None {
		srv.fwdWait = true
		srv.prevOwner = line.ownerL1
		c.sendToL1(line.ownerL1, b, kFwdGetS, tagExt, 0)
		return
	}
	srv.prevOwner = topo.None
	// L2 itself holds the data. Chip-level migratory: modified and no
	// local readers.
	if line.cs == csM && line.dirty && line.sharers == 0 {
		srv.hasData = true
		srv.data = line.data
		srv.dirty = line.dirty
		srv.migr = true
		c.finishExtIfDone(b, srv)
		return
	}
	srv.hasData = true
	srv.data = line.data
	srv.dirty = line.dirty
	c.finishExtIfDone(b, srv)
}

// finishExtIfDone completes a home-initiated service once local
// collection is done: reply to the remote requester and update chip
// state.
func (c *L2Ctrl) finishExtIfDone(b mem.Block, srv *extSrv) {
	if srv.fwdWait || srv.acks > 0 {
		return
	}
	line := c.lookup(b)
	switch srv.kind {
	case kFwdGetM:
		c.sendData(srv.replyTo, b, srv.data, srv.dirty, packAux(grantM, srv.acksFor, false))
		c.dropLine(b, line)
	case kFwdGetS:
		if srv.migr {
			// Migratory chip-to-chip transfer: requester gets M; we
			// invalidate entirely.
			c.sys.ctr.migratory.Inc()
			c.sendData(srv.replyTo, b, srv.data, srv.dirty, packAux(grantM, 0, true))
			c.dropLine(b, line)
		} else {
			// We keep the data and stay owner (chip state O).
			if line == nil {
				panic(fmt.Sprintf("directory: L2 %v lost line during FwdGetS service for %v", c.id, b))
			}
			line.hasData = true
			line.data = srv.data
			line.dirty = srv.dirty
			if srv.prevOwner != topo.None {
				// The owning L1 degraded itself to S; it is a sharer now
				// and must be invalidated by future writers.
				line.sharers |= c.sys.Geom.L1Bit(srv.prevOwner)
				line.ownerL1 = topo.None
			}
			line.cs = csO
			c.sendData(srv.replyTo, b, srv.data, srv.dirty, packAux(grantS, 0, false))
		}
	case kInv:
		c.ackInter(srv.replyTo, b)
		c.dropLine(b, line)
	}
	c.ext.Delete(b)
	if line := c.lookup(b); line != nil {
		line.pinned = c.busy(b) != nil
	}
	c.drain(b)
}

// ackInter acknowledges to the requesting chip dst that this chip's
// copy of b is gone.
func (c *L2Ctrl) ackInter(dst topo.NodeID, b mem.Block) {
	c.sys.Net.SendNew(network.Message{
		Src:   c.id,
		Dst:   dst,
		Block: b,
		Kind:  kInvAck,
		Proc:  tagInter,
	})
}

// dropLine invalidates our copy of b (chip lost all permission).
func (c *L2Ctrl) dropLine(b mem.Block, line *l2Line) {
	if line == nil {
		return
	}
	if c.busy(b) != nil {
		// A local transaction is inter-pending on this very block; keep
		// the reserved (now invalid) line for its grant.
		line.cs = csI
		line.hasData = false
		line.ownerL1 = topo.None
		line.sharers = 0
		return
	}
	c.cache.Invalidate(b)
}

// serveFwdFromWb answers a home forward from the writeback buffer (the
// PUT will be cancelled when its grant arrives).
func (c *L2Ctrl) serveFwdFromWb(m *network.Message, w *hier.WbEntry) {
	b := m.Block
	_, acks, _ := unpackAux(m.Aux)
	gst := grantS
	if m.Kind == kFwdGetM {
		gst = grantM
		w.Valid = false
	}
	c.sendData(m.Requestor, b, w.Data, w.Dirty, packAux(gst, acks, false))
}

// sendData sends this chip's copy of b, with grant aux, to the
// requesting chip dst.
func (c *L2Ctrl) sendData(dst topo.NodeID, b mem.Block, data uint64, dirty bool, aux int32) {
	c.sys.Net.SendNew(network.Message{
		Src:       c.id,
		Dst:       dst,
		Block:     b,
		Kind:      kData,
		HasData:   true,
		Data:      data,
		Dirty:     dirty,
		Aux:       aux,
		Requestor: dst,
	})
}

// admitHomeInv invalidates the whole chip's copy on behalf of a remote
// writer, acking to the requesting chip.
func (c *L2Ctrl) admitHomeInv(m *network.Message) {
	b := m.Block
	if srv := c.ext.Peek(b); srv != nil {
		if srv.kind == -1 {
			srv.pendingHome = append(srv.pendingHome, *m)
			return
		}
		panic(fmt.Sprintf("directory: L2 %v overlapping home inv for %v", c.id, b))
	}
	if txn := c.busy(b); txn != nil && !txn.interPending {
		c.ser.Defer(m)
		return
	}
	line := c.lookup(b)
	if line == nil {
		// Stale sharer entry (we dropped an S line silently, or the copy
		// left in a writeback): ack immediately.
		if w := c.wb.Valid(b); w != nil {
			w.Valid = false
		}
		c.ackInter(m.Requestor, b)
		return
	}
	srv := c.ext.At(b)
	*srv = extSrv{kind: kInv, replyTo: m.Requestor}
	line.pinned = true
	if line.ownerL1 != topo.None {
		srv.acks++
		c.sendToL1(line.ownerL1, b, kInv, tagExt, 0)
		line.ownerL1 = topo.None
	}
	srv.acks += c.invalidateL1s(b, line.sharers, tagExt)
	line.sharers = 0
	c.finishExtIfDone(b, srv)
}

// handlePut runs the L2 side of an L1's three-phase writeback.
func (c *L2Ctrl) handlePut(m *network.Message) {
	b := m.Block
	if c.busy(b) != nil || c.ext.Peek(b) != nil {
		c.ser.Defer(m)
		return
	}
	// Grant immediately; the transaction completes on WbData/WbCancel.
	// Mark busy so conflicting requests defer.
	c.start(b, m.Requestor, kPut)
	if line := c.lookup(b); line != nil {
		line.pinned = true
	}
	c.sys.wbr.GrantPut(c.sys.Net, c.id, m)
}

// handleWbData completes a local L1's three-phase writeback at this bank.
func (c *L2Ctrl) handleWbData(m *network.Message) {
	b := m.Block
	txn := c.busy(b)
	if txn == nil || txn.kind != kPut {
		panic(fmt.Sprintf("directory: L2 %v %s without PUT transaction for %v", c.id, kinds.Name(m.Kind), b))
	}
	c.ser.End(b)
	evictorBit := c.sys.Geom.L1Bit(m.Src)
	if m.Kind == kWbData {
		// Accept the data; the evictor was the local owner (E/M).
		if !c.reserve(b) {
			// Extremely unlikely; absorb by writing through to home.
			c.wb.Put(c.home(b), b, m.Data, m.Dirty, false)
		} else {
			line := c.lookup(b)
			line.hasData = true
			line.data = m.Data
			line.dirty = line.dirty || m.Dirty
			if line.ownerL1 == m.Src {
				line.ownerL1 = topo.None
			}
			line.sharers &^= evictorBit
			line.pinned = c.ext.Peek(b) != nil
		}
	} else if line := c.lookup(b); line != nil {
		// Cancelled: the copy was consumed by an earlier transaction.
		if line.ownerL1 == m.Src {
			line.ownerL1 = topo.None
		}
		line.sharers &^= evictorBit
		line.pinned = c.ext.Peek(b) != nil
	}
	c.drain(b)
}
