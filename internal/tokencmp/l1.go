package tokencmp

import (
	"fmt"
	"math/rand"

	"tokencmp/internal/cache"
	"tokencmp/internal/cpu"
	"tokencmp/internal/hier"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
	"tokencmp/internal/token"
	"tokencmp/internal/topo"
)

// l1Txn is the request state of the outstanding miss.
type l1Txn struct {
	reqKind          token.ReqKind
	issuedAt         sim.Time
	transientsSent   int
	persistent       bool   // escalation decided
	persistentIssued bool   // substrate request actually broadcast
	waitingMark      bool   // gated by the marking mechanism
	seq              uint64 // invalidates stale timeout events
}

// L1Ctrl is a TokenCMP L1 cache controller (data or instruction). It is
// both a cpu.MemPort for its processor and a substrate endpoint.
type L1Ctrl struct {
	base
	hier.L1[l1Txn]
	cmp        int
	globalProc int

	cache *cache.Array[token.State]
	banks []*L2Ctrl // local L2 banks, for token-presence notes
	est   *token.TimeoutEstimator
	pred  *predictor

	// rng draws retry backoffs. Most L1s never retry, so it is built
	// from seed on the first draw.
	rng  *rand.Rand
	seed int64
}

func (sys *System) newL1(id topo.NodeID, cmp, proc int, instr bool) *L1Ctrl {
	cfg := sys.Cfg
	c := &L1Ctrl{
		cmp:        cmp,
		globalProc: sys.Geom.GlobalProc(cmp, proc),
		cache:      cache.New[token.State](sys.L1Params()),
		banks:      sys.L2s[cmp],
		est:        token.NewTimeoutEstimator(initialTimeout),
		seed:       cfg.Seed*1000003 + int64(id),
	}
	c.initTables(sys, id)
	c.Init(sys.Eng, sys.Ctrs, id, instr, c.attempt)
	c.accessLatency = hier.L1Latency
	c.lookup = func(b mem.Block) *token.State {
		_, s := c.find(b)
		return s
	}
	c.onEmpty = func(b mem.Block) { c.cache.Invalidate(b) }
	c.noteLoss = c.notifyLoss
	if cfg.Variant.Predictor && !instr {
		c.pred = newPredictor(cfg.Seed*7919 + int64(id))
	}
	return c
}

// find returns b's line and its token state, or two nils.
func (c *L1Ctrl) find(b mem.Block) (*cache.Line[token.State], *token.State) {
	if l := c.cache.Lookup(b); l != nil {
		return l, &l.State
	}
	return nil, nil
}

// bankFor returns this CMP's L2 bank controller serving b.
func (c *L1Ctrl) bankFor(b mem.Block) *L2Ctrl {
	return c.banks[c.sys.Geom.Bank(b)]
}

// notifyLoss keeps the L2 bank's on-chip token presence current when
// tokens leave this L1 (the bank observes all on-chip interconnect
// traffic; modeled as a zero-cost note).
func (c *L1Ctrl) notifyLoss(b mem.Block, tokens int, owner bool, dst topo.NodeID, emptied bool) {
	g := c.sys.Geom
	if g.IsCache(dst) && g.CMPOf(dst) == c.cmp && g.KindOf(dst) != topo.L2 {
		// L1 to sibling L1: tokens stay on chip.
		c.bankFor(b).noteL1Transfer(b, c.id, dst, emptied)
		return
	}
	c.bankFor(b).noteL1Loss(b, tokens, owner, c.id, emptied)
}

func sufficient(s *token.State, kind cpu.AccessKind, t int) bool {
	if s == nil {
		return false
	}
	switch kind {
	case cpu.Load, cpu.IFetch:
		return s.CanRead()
	default:
		return s.CanWrite(t)
	}
}

func (c *L1Ctrl) attempt() {
	m := &c.Miss
	b := m.Block
	l, s := c.find(b)
	if sufficient(s, m.Kind, c.sys.T) {
		c.cache.TouchLine(l)
		c.Hit(c.apply(m.Kind, s, m.Store))
		return
	}
	c.Missed()
	txn := &m.Txn // zeroed by Access: seq restarts at 0, so an old miss's timeout can alias this one (ROADMAP)
	txn.issuedAt = c.sys.Eng.Now()
	if m.Kind == cpu.Load || m.Kind == cpu.IFetch {
		txn.reqKind = token.ReqRead
	} else {
		txn.reqKind = token.ReqWrite
	}

	v := c.sys.Cfg.Variant
	switch {
	case v.MaxTransients == 0:
		c.issuePersistent(b, txn)
	case c.pred != nil && c.pred.Contended(b):
		c.issuePersistent(b, txn)
	default:
		c.sendTransient(b, txn)
	}
}

// apply performs the memory operation on a line with sufficient
// permission and returns the load/swap result. Stores and atomics start
// the response-delay hold (§3.2).
func (c *L1Ctrl) apply(kind cpu.AccessKind, s *token.State, store uint64) uint64 {
	switch kind {
	case cpu.Load, cpu.IFetch:
		return s.Data
	case cpu.Store:
		s.Data = store
		s.Dirty = true
		c.hold(s)
		return 0
	default: // Atomic swap
		old := s.Data
		s.Data = store
		s.Dirty = true
		if old != store {
			// A swap that wrote the value already present is a failed
			// test-and-set: it begins no critical section, so holding the
			// block would only slow the handoff to the next contender.
			c.hold(s)
		}
		return old
	}
}

// hold starts the response-delay window (§3.2) so a short critical
// section completes before the block can be stolen. The delay is
// bounded: consecutive stores do not extend an active hold, otherwise a
// store-heavy processor could starve remote requesters — the paper's
// "bounded delay does not affect starvation-avoidance guarantees".
func (c *L1Ctrl) hold(s *token.State) {
	now := c.sys.Eng.Now()
	if s.HoldUntil < now {
		s.HoldUntil = now + hier.ResponseDelay
	}
}

func (c *L1Ctrl) sendTransient(b mem.Block, txn *l1Txn) {
	txn.transientsSent++
	c.sys.ctr.reqTransient.Inc()
	if txn.transientsSent > 1 {
		c.sys.ctr.reqRetry.Inc()
	}
	tmpl := &network.Message{
		Src:       c.id,
		Block:     b,
		Kind:      kTransient,
		Aux:       int32(txn.reqKind),
		Requestor: c.id,
		Proc:      int32(c.globalProc),
	}
	c.sys.Net.Broadcast(tmpl, c.sys.l1sInCMP[c.cmp])
	tmpl.Dst = c.sys.Geom.L2BankFor(c.cmp, b)
	c.sys.Net.SendNew(*tmpl)

	txn.seq++
	c.sys.Eng.ScheduleCall(c.est.Timeout(), l1Timeout, c, c.args.New(b, txn.seq))
}

// l1Timeout and l1Backoff are the closure-free thunks of a transient
// request's timeout and its retry after backoff. Each carries the
// (block, seq) it was scheduled for and does nothing unless that is
// still the outstanding miss's.
func l1Timeout(ctx, arg any) {
	c := ctx.(*L1Ctrl)
	c.onTimeout(c.args.Take(arg.(*hier.BlockArg)))
}

func l1Backoff(ctx, arg any) {
	c := ctx.(*L1Ctrl)
	b, seq := c.args.Take(arg.(*hier.BlockArg))
	if m := c.For(b); m != nil && m.Txn.seq == seq && !m.Txn.persistent {
		c.sendTransient(b, &m.Txn)
	}
}

func (c *L1Ctrl) onTimeout(b mem.Block, seq uint64) {
	m := c.For(b)
	if m == nil || m.Txn.seq != seq || m.Txn.persistent {
		return
	}
	txn := &m.Txn
	c.sys.ctr.reqTimeout.Inc()
	if c.pred != nil {
		c.pred.NoteTimeout(b)
	}
	if txn.transientsSent < c.sys.Cfg.Variant.MaxTransients {
		// Retry with pseudo-random backoff to avoid lock-step retries.
		if c.rng == nil {
			c.rng = rand.New(rand.NewSource(c.seed))
		}
		backoff := sim.Time(c.rng.Int63n(int64(c.est.Timeout()/4) + 1))
		txn.seq++
		c.sys.Eng.ScheduleCall(backoff, l1Backoff, c, c.args.New(b, txn.seq))
		return
	}
	c.issuePersistent(b, txn)
}

func (c *L1Ctrl) issuePersistent(b mem.Block, txn *l1Txn) {
	txn.persistent = true
	if c.distributed {
		if c.dtable.HasMarked(b) {
			// Marking mechanism: wait until the marked wave drains.
			txn.waitingMark = true
			return
		}
		txn.waitingMark = false
		txn.persistentIssued = true
		c.sys.ctr.reqPersistent.Inc()
		c.dtable.Insert(c.globalProc, b, txn.reqKind, c.id)
		tmpl := &network.Message{
			Src:       c.id,
			Block:     b,
			Kind:      kPersistent,
			Aux:       int32(txn.reqKind),
			Proc:      int32(c.globalProc),
			Requestor: c.id,
		}
		c.sys.Net.Broadcast(tmpl, c.sys.allEndpoints)
		c.tryComplete(b)
		return
	}
	// Arbiter-based activation: ask the block's home memory controller.
	txn.persistentIssued = true
	c.sys.ctr.reqPersistent.Inc()
	c.sys.Net.SendNew(network.Message{
		Src:       c.id,
		Dst:       c.sys.Geom.HomeMem(b),
		Block:     b,
		Kind:      kArbRequest,
		Aux:       int32(txn.reqKind),
		Proc:      int32(c.globalProc),
		Requestor: c.id,
	})
}

// tryComplete finishes the outstanding transaction for b if permissions
// now suffice.
func (c *L1Ctrl) tryComplete(b mem.Block) {
	m := c.For(b)
	if m == nil {
		return
	}
	l, s := c.find(b)
	if !sufficient(s, m.Kind, c.sys.T) {
		return
	}
	done := c.Finish() // pending timeouts now find no miss for b
	c.cache.TouchLine(l)
	val := c.apply(m.Kind, s, m.Store)
	if m.Txn.persistentIssued {
		c.deactivatePersistent(b)
	}
	done(val)
}

func (c *L1Ctrl) deactivatePersistent(b mem.Block) {
	if c.distributed {
		c.dtable.Deactivate(c.globalProc)
		c.dtable.MarkAllFor(b)
		tmpl := &network.Message{
			Src:   c.id,
			Block: b,
			Kind:  kPersistentDone,
			Proc:  int32(c.globalProc),
		}
		c.sys.Net.Broadcast(tmpl, c.sys.allEndpoints)
		// Direct handoff: if another persistent request is now active for
		// this block, our tokens flow to it (after the response delay).
		c.reeval(b)
		return
	}
	c.sys.Net.SendNew(network.Message{
		Src:   c.id,
		Dst:   c.sys.Geom.HomeMem(b),
		Block: b,
		Kind:  kArbDone,
		Proc:  int32(c.globalProc),
	})
}

// recheckMarked re-attempts persistent issue for a transaction gated by
// the marking mechanism (called when deactivations arrive).
func (c *L1Ctrl) recheckMarked() {
	b := c.Miss.Block
	if m := c.For(b); m != nil && m.Txn.waitingMark && !c.dtable.HasMarked(b) {
		c.issuePersistent(b, &m.Txn)
	}
}

// Recv implements network.Endpoint. Transient requests, local or
// forwarded from another CMP, arrive after the tag-access delay;
// responses and the persistent-table messages act on arrival (see the
// Prompt column of kinds).
func (c *L1Ctrl) Recv(m *network.Message) {
	switch m.Kind {
	case kTransient, kFwdExternal:
		c.handleRequest(m, m.Kind == kFwdExternal)
	case kResponse:
		c.handleResponse(m)
	case kPersistentDone:
		if blk, ok := c.dtable.Deactivate(int(m.Proc)); ok {
			c.reeval(blk)
		}
		c.recheckMarked()
		c.tryComplete(m.Block)
	default:
		if c.handlePersistentMsg(m) {
			c.tryComplete(m.Block)
			return
		}
		panic(fmt.Sprintf("tokencmp: L1 %v cannot handle %s", c.id, kinds.Name(m.Kind)))
	}
}

// handleResponse merges arriving tokens/data, then lets the substrate
// forward them if a persistent request is active, then tries to complete
// our own transaction.
func (c *L1Ctrl) handleResponse(m *network.Message) {
	b := m.Block
	line, victim, vstate, evicted := c.cache.Install(b)
	if evicted {
		c.writebackVictim(victim, vstate)
	}
	line.State.Merge(int(m.Tokens), m.Owner, m.HasData, m.Data, m.Dirty)

	// On-chip presence: gains from outside the chip are noted; gains from
	// local endpoints were accounted at their send.
	g := c.sys.Geom
	if g.CMPOf(m.Src) != c.cmp || g.KindOf(m.Src) == topo.Mem {
		c.bankFor(b).noteL1Gain(b, int(m.Tokens), m.Owner, c.id)
	}

	// The timeout threshold tracks memory response latency only (§4) —
	// and only data-carrying responses: token-only responses skip the
	// DRAM access and would drag the threshold below the real miss
	// latency, triggering spurious retries.
	if miss := c.For(b); miss != nil && g.KindOf(m.Src) == topo.Mem && m.HasData {
		c.est.Observe(c.sys.Eng.Now() - miss.Txn.issuedAt)
	}

	c.reeval(b)
	c.tryComplete(b)
}

func (c *L1Ctrl) writebackVictim(victim mem.Block, st token.State) {
	if st.Tokens == 0 {
		return
	}
	c.sys.ctr.l1Writeback.Inc()
	c.bankFor(victim).noteL1Loss(victim, st.Tokens, st.Owner, c.id, true)
	c.writeback(c.sys.Geom.L2BankFor(c.cmp, victim), victim, st)
}

// handleRequest answers a transient request, local or forwarded from
// another CMP, by the Section 4 response rules once the response-delay
// hold allows.
func (c *L1Ctrl) handleRequest(m *network.Message, external bool) {
	b := m.Block
	if c.transientBlocked(b, m.Requestor) {
		return
	}
	s := c.lookup(b)
	if s == nil || s.Tokens == 0 {
		return
	}
	if s.HoldUntil > c.sys.Eng.Now() {
		// Response-delay mechanism: re-handle once the hold expires.
		c.sys.Net.HandleAt(s.HoldUntil, m)
		return
	}
	resp, emptied, migratory := c.respond(m, s, external)
	if resp.Tokens == 0 {
		return
	}
	if migratory {
		c.sys.ctr.migratory.Inc()
	}
	c.address(&resp, m.Requestor, b)
	c.notifyLoss(b, int(resp.Tokens), resp.Owner, resp.Dst, emptied)
	c.sys.Net.SendNew(resp)
	if emptied {
		c.cache.Invalidate(b)
	}
}
