package tokencmp

import (
	"tokencmp/internal/hier"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
	"tokencmp/internal/token"
	"tokencmp/internal/topo"
)

// base is the substrate-node behavior shared by L1, L2, and memory
// controllers: the persistent-request tables and the token-forwarding
// rules they obligate (§3.2). Every endpoint remembers activated
// persistent requests and forwards tokens — those present now and those
// received later — to the initiator.
type base struct {
	id  topo.NodeID
	sys *System

	// distributed fixes the endpoint's activation scheme at
	// construction: it keeps dtable under distributed activation and
	// atable under arbiter activation, and leaves the other empty.
	distributed bool
	dtable      token.DistributedTable
	atable      token.ArbTable

	// args holds the payloads of the endpoint's delayed calls: held
	// re-evaluations, and an L1's timeouts and retries.
	args hier.BlockArgs

	// lookup returns the endpoint's token state for b, or nil.
	lookup func(b mem.Block) *token.State
	// onEmpty tells the endpoint its state for b drained to zero tokens
	// (caches invalidate the line). May be nil.
	onEmpty func(b mem.Block)
	// noteLoss reports tokens leaving this endpoint toward dst (used by
	// L1s to keep the L2 bank's on-chip token presence current). May be
	// nil.
	noteLoss func(b mem.Block, tokens int, owner bool, dst topo.NodeID, emptied bool)
	// accessLatency delays persistent forwards by the endpoint's array
	// access time.
	accessLatency sim.Time
	// dataDelay is extra latency when a forward carries data (DRAM).
	dataDelay sim.Time
	// isMem marks memory controllers, which give up everything on
	// persistent reads (they are not caches and hold no read permission).
	isMem bool
}

func (c *base) initTables(sys *System, id topo.NodeID) {
	c.sys = sys
	c.id = id
	c.distributed = sys.Cfg.Variant.Activation == Distributed
	if c.distributed {
		c.dtable = token.NewDistributedTable(sys.Geom.TotalProcs())
	}
}

// activeEntry returns the persistent request this endpoint must currently
// honor for b under the configured activation mechanism, or nil. The
// entry lives in the table, so it is valid only until the table changes.
func (c *base) activeEntry(b mem.Block) *token.Entry {
	if c.distributed {
		return c.dtable.Active(b)
	}
	return c.atable.Active(b)
}

// reeval checks whether tokens held for b must be forwarded to an active
// persistent request and, if so, sends them. It is called after every
// table update and every token arrival, which implements "forward tokens
// present and received in the future". The response-delay hold defers,
// never cancels, the forward.
func (c *base) reeval(b mem.Block) {
	e := c.activeEntry(b)
	if e == nil || e.Dest == c.id {
		return
	}
	s := c.lookup(b)
	if s == nil || s.Tokens == 0 {
		return
	}
	now := c.sys.Eng.Now()
	if s.HoldUntil > now {
		c.sys.Eng.ScheduleCallAt(s.HoldUntil, reevalCall, c, c.args.New(b, 0))
		return
	}

	var tmpl network.Message
	switch {
	case e.Kind == token.ReqWrite || c.isMem:
		// Persistent writes collect everything; memory also cedes all on
		// persistent reads (it needs no read permission and holds the
		// data the reader must receive).
		tmpl = takeAll(s)
	case s.Owner:
		// Persistent read: the owner keeps one plain token (retaining a
		// readable copy when it has data) and sends the owner token with
		// data, guaranteeing the reader receives valid data.
		give := s.Tokens - 1
		if give < 1 {
			give = s.Tokens // owner-only: must surrender the owner token
		}
		tmpl = network.Message{Tokens: int32(give), Owner: true, HasData: true, Data: s.Data, Dirty: s.Dirty}
		s.Tokens -= give
		s.Owner = false
		s.Dirty = false
		if s.Tokens == 0 {
			s.HasData = false
		}
	default:
		// Non-owner holder: give up all but one token; data travels from
		// the owner.
		if s.Tokens < 2 {
			return
		}
		give := s.Tokens - 1
		s.Tokens = 1
		tmpl = network.Message{Tokens: int32(give)}
	}
	if tmpl.Tokens == 0 && !tmpl.Owner {
		return
	}
	emptied := s.Tokens == 0
	c.address(&tmpl, e.Dest, b)
	if c.noteLoss != nil {
		c.noteLoss(b, int(tmpl.Tokens), tmpl.Owner, tmpl.Dst, emptied)
	}
	delay := c.accessLatency
	if tmpl.HasData {
		delay += c.dataDelay
	}
	c.sys.Net.SendAfter(delay, tmpl)
	if emptied && c.onEmpty != nil {
		c.onEmpty(b)
	}
}

// takeAll empties s into a carrier message. Data travels with the
// owner token, and an owner always holds data, so the carrier has data
// exactly when it has the owner token.
func takeAll(s *token.State) network.Message {
	tk, own, hasData, data, dirty := s.TakeAll()
	return network.Message{Tokens: int32(tk), Owner: own, HasData: own && hasData, Data: data, Dirty: dirty}
}

// address makes m a response from this endpoint to dst about b.
func (c *base) address(m *network.Message, dst topo.NodeID, b mem.Block) {
	m.Src = c.id
	m.Dst = dst
	m.Block = b
	m.Kind = kResponse
}

// respond applies the Section 4 response rules of a cache holding s
// to the transient request m: local rules for sibling-L1 requests,
// external rules for requests from other CMPs. It takes the response's
// tokens and data out of s and returns them unaddressed; a response
// without tokens means stay silent. emptied reports that s gave up
// everything, migratory that it was a migratory handoff.
func (c *base) respond(m *network.Message, s *token.State, external bool) (resp network.Message, emptied, migratory bool) {
	switch {
	case token.ReqKind(m.Aux) == token.ReqWrite:
		return takeAll(s), true, false
	case s.Owner && s.Tokens == c.sys.T && s.Dirty && !c.sys.Cfg.DisableMigratory:
		// Migratory sharing: hand everything to the reader.
		return takeAll(s), true, true
	case s.Owner && s.Tokens >= 2:
		n := 1
		if external {
			// Inter-CMP read responses carry up to C tokens so future
			// intra-CMP requests hit locally (§4).
			n = min(c.sys.Geom.CachesPerCMP(), s.Tokens-1)
		}
		s.Tokens -= n
		resp = network.Message{Tokens: int32(n), HasData: true, Data: s.Data}
	case s.Owner:
		// Owner-only: transfer ownership with data rather than starve the
		// reader.
		return takeAll(s), true, false
	case !external && s.Tokens >= 2 && s.HasData:
		// Local read served by a non-owner sharer with spare tokens.
		s.Tokens--
		resp = network.Message{Tokens: 1, HasData: true, Data: s.Data}
	}
	// Otherwise stay silent: externally a non-owner never answers a
	// read, and locally a sharer answers only with data and a spare
	// token.
	return resp, false, false
}

// writeback sends the evicted state st of b to dst; the owner token
// carries the data.
func (c *base) writeback(dst topo.NodeID, b mem.Block, st token.State) {
	c.sys.Net.SendNew(network.Message{
		Src:     c.id,
		Dst:     dst,
		Block:   b,
		Kind:    kWriteback,
		Tokens:  int32(st.Tokens),
		Owner:   st.Owner,
		HasData: st.Owner,
		Data:    st.Data,
		Dirty:   st.Dirty,
	})
}

// reevalCall is reeval's closure-free thunk for a forward deferred by
// the response-delay hold.
func reevalCall(ctx, arg any) {
	c := ctx.(*base)
	b, _ := c.args.Take(arg.(*hier.BlockArg))
	c.reeval(b)
}

// transientBlocked reports whether transient requests for b must be
// ignored. An activated persistent *write* request owns every token for
// the block (present and future), so responding to a transient would
// only bounce tokens away from the starving initiator. An activated
// persistent *read* leaves one token at each holder, which transient
// writers may still collect — blocking those would stall lock releases
// behind spinner waves. The initiator's own transients are always
// served.
func (c *base) transientBlocked(b mem.Block, requestor topo.NodeID) bool {
	e := c.activeEntry(b)
	return e != nil && e.Dest != requestor && e.Kind == token.ReqWrite
}

// handlePersistentMsg processes the substrate's table-maintenance
// messages shared by all endpoints. It reports whether the message kind
// was consumed.
func (c *base) handlePersistentMsg(m *network.Message) bool {
	switch m.Kind {
	case kPersistent:
		c.dtable.Insert(int(m.Proc), m.Block, token.ReqKind(m.Aux), m.Requestor)
		c.reeval(m.Block)
	case kPersistentDone:
		if blk, ok := c.dtable.Deactivate(int(m.Proc)); ok {
			c.reeval(blk)
		}
	case kArbActivate:
		c.atable.Activate(m.Block, token.ReqKind(m.Aux), m.Requestor, int(m.Proc))
		c.reeval(m.Block)
	case kArbDeactivate:
		c.atable.Deactivate(m.Block, int(m.Proc))
		c.reeval(m.Block)
	default:
		return false
	}
	return true
}
