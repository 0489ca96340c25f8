package tokencmp

import (
	"fmt"

	"tokencmp/internal/blocktab"
	"tokencmp/internal/cache"
	"tokencmp/internal/hier"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/token"
	"tokencmp/internal/topo"
)

// presence tracks the L2 bank's view of tokens held by its CMP's L1
// caches (including L1-to-L1 transfers in flight on the on-chip
// interconnect, which the bank observes). This is what lets the policy
// stay on chip when the block is local — the "hierarchical for
// performance" half of the design. A block leaves the table once it has
// no tokens, no owner and no sharers.
type presence struct {
	tokens  int
	owner   bool
	sharers uint64 // approximate L1-sharer bits (filter variant)
}

// L2Ctrl is a TokenCMP shared-L2 bank controller.
type L2Ctrl struct {
	base
	cmp, bank int

	cache  *cache.Array[token.State]
	onChip blocktab.Table[presence]
	dsts   []topo.NodeID // handleLocal's broadcast list, reused
}

func (sys *System) newL2(id topo.NodeID, cmp, bank int) *L2Ctrl {
	c := &L2Ctrl{
		cmp:   cmp,
		bank:  bank,
		cache: cache.New[token.State](sys.L2BankParams()),
	}
	c.initTables(sys, id)
	c.accessLatency = hier.L2Latency
	c.lookup = func(b mem.Block) *token.State {
		if l := c.cache.Lookup(b); l != nil {
			return &l.State
		}
		return nil
	}
	c.onEmpty = func(b mem.Block) { c.cache.Invalidate(b) }
	return c
}

// noteL1Gain records tokens arriving at a local L1 from off-chip or from
// this bank.
func (c *L2Ctrl) noteL1Gain(b mem.Block, tokens int, owner bool, l1 topo.NodeID) {
	p := c.onChip.At(b)
	p.tokens += tokens
	if owner {
		p.owner = true
	}
	if tokens > 0 {
		p.sharers |= c.sys.Geom.L1Bit(l1)
	}
}

// noteL1Loss records tokens leaving a local L1 toward this bank, another
// bank, or off-chip.
func (c *L2Ctrl) noteL1Loss(b mem.Block, tokens int, owner bool, l1 topo.NodeID, emptied bool) {
	p := c.onChip.At(b)
	p.tokens -= tokens
	if p.tokens < 0 {
		p.tokens = 0
	}
	if owner {
		p.owner = false
	}
	if emptied {
		p.sharers &^= c.sys.Geom.L1Bit(l1)
	}
	if p.tokens == 0 && !p.owner && p.sharers == 0 {
		c.onChip.Delete(b)
	}
}

// noteL1Transfer records an L1-to-L1 transfer: on-chip totals are
// unchanged but the sharer mask moves.
func (c *L2Ctrl) noteL1Transfer(b mem.Block, from, to topo.NodeID, fromEmptied bool) {
	p := c.onChip.At(b)
	if fromEmptied {
		p.sharers &^= c.sys.Geom.L1Bit(from)
	}
	p.sharers |= c.sys.Geom.L1Bit(to)
}

// Recv implements network.Endpoint. Transient requests, writebacks and
// stray responses arrive after the bank's tag-access delay; the
// persistent-request messages act on arrival (see the Prompt column of
// kinds).
func (c *L2Ctrl) Recv(m *network.Message) {
	switch m.Kind {
	case kWriteback, kResponse:
		// Stray kResponse tokens routed to the bank (e.g. returned by
		// memory) merge like a writeback.
		c.handleWriteback(m)
	case kTransient:
		if c.sys.Geom.CMPOf(m.Src) == c.cmp {
			c.handleLocal(m)
		} else {
			c.handleExternal(m)
		}
	default:
		if c.handlePersistentMsg(m) {
			return
		}
		panic(fmt.Sprintf("tokencmp: L2 %v cannot handle %s", c.id, kinds.Name(m.Kind)))
	}
}

// serve answers a transient request from the bank's own tokens by the
// Section 4 response rules; external selects the inter-CMP rules. It
// reports whether a response was sent and whether it carried data.
func (c *L2Ctrl) serve(m *network.Message, external bool) (responded, withData bool) {
	b := m.Block
	if c.transientBlocked(b, m.Requestor) {
		return false, false
	}
	s := c.lookup(b)
	if s == nil || s.Tokens == 0 {
		return false, false
	}
	// Unlike the L1, the bank leaves its migratory handoffs out of
	// grant.migratory (ROADMAP); counting them would move the pinned
	// counter totals.
	resp, emptied, _ := c.respond(m, s, external)
	if resp.Tokens == 0 {
		return false, false
	}
	c.address(&resp, m.Requestor, b)
	// Tokens sent to a local L1 stay on chip.
	g := c.sys.Geom
	if g.IsCache(resp.Dst) && g.CMPOf(resp.Dst) == c.cmp {
		c.noteL1Gain(b, int(resp.Tokens), resp.Owner, resp.Dst)
	}
	c.sys.Net.SendNew(resp)
	if emptied {
		c.cache.Invalidate(b)
	}
	return true, resp.HasData
}

// handleLocal serves a transient request from a local L1 and decides
// whether the request must also be broadcast off-chip (the L2-miss path
// of the hierarchical policy).
func (c *L2Ctrl) handleLocal(m *network.Message) {
	b := m.Block
	rk := token.ReqKind(m.Aux)

	_, respondedWithData := c.serve(m, false)

	// External decision based on the bank's own remaining tokens plus its
	// view of tokens held by local L1s.
	var own int
	if s := c.lookup(b); s != nil {
		own = s.Tokens
	}
	p := c.onChip.Peek(b)
	onTokens, onOwner := 0, false
	if p != nil {
		onTokens, onOwner = p.tokens, p.owner
	}

	goExternal := false
	if rk == token.ReqWrite {
		goExternal = own+onTokens < c.sys.T
	} else {
		goExternal = !respondedWithData && !onOwner
	}
	if !goExternal {
		return
	}
	g := c.sys.Geom
	dsts := c.dsts[:0]
	for cmp := 0; cmp < g.CMPs; cmp++ {
		if cmp == c.cmp {
			continue
		}
		dsts = append(dsts, g.L2BankFor(cmp, b))
	}
	dsts = append(dsts, g.HomeMem(b))
	c.dsts = dsts
	c.sys.Net.Broadcast(&network.Message{
		Src:       c.id,
		Block:     b,
		Kind:      kTransient,
		Aux:       m.Aux,
		Requestor: m.Requestor,
		Proc:      m.Proc,
	}, dsts)
}

// handleExternal serves a transient request arriving from another CMP:
// respond from the bank's own tokens per the external rules, then forward
// to local L1s (all of them, or — with the filter — only the approximate
// sharer set; persistent requests are never filtered).
func (c *L2Ctrl) handleExternal(m *network.Message) {
	b := m.Block
	rk := token.ReqKind(m.Aux)

	respondedAsOwner := false
	if s := c.lookup(b); rk == token.ReqRead && s != nil && s.Tokens > 0 && s.Owner {
		respondedAsOwner, _ = c.serve(m, true)
	} else if rk == token.ReqWrite {
		c.serve(m, true)
	}

	// Reads satisfied by this bank as owner need no L1 involvement.
	if respondedAsOwner {
		return
	}

	// No point disturbing the L1s when none of them holds a token (the
	// bank observes all on-chip token movement); correctness never
	// depends on this because persistent requests are never filtered.
	p := c.onChip.Peek(b)
	if p == nil || p.tokens == 0 {
		return
	}
	if token.ReqKind(m.Aux) == token.ReqRead && !p.owner {
		return // external reads are answered only by the owner
	}
	l1s := c.sys.l1sInCMP[c.cmp]
	fwd := network.Message{
		Src:       c.id,
		Block:     b,
		Kind:      kFwdExternal,
		Aux:       m.Aux,
		Requestor: m.Requestor,
		Proc:      m.Proc,
	}
	if c.sys.Cfg.Variant.Filter {
		mask := p.sharers
		for _, l1 := range l1s {
			if mask&c.sys.Geom.L1Bit(l1) != 0 {
				fwd.Dst = l1
				c.sys.Net.SendNew(fwd)
				c.sys.ctr.fwdSent.Inc()
			}
		}
		return
	}
	for _, l1 := range l1s {
		fwd.Dst = l1
		c.sys.Net.SendNew(fwd)
		c.sys.ctr.fwdSent.Inc()
	}
}

// handleWriteback merges tokens arriving from local L1 writebacks (or
// stray responses), evicting to the home memory if the set is full.
func (c *L2Ctrl) handleWriteback(m *network.Message) {
	c.sys.ctr.l2Writeback.Inc()
	b := m.Block
	line, victim, vstate, evicted := c.cache.Install(b)
	if evicted && vstate.Tokens > 0 {
		c.writeback(c.sys.Geom.HomeMem(victim), victim, vstate)
	}
	line.State.Merge(int(m.Tokens), m.Owner, m.HasData, m.Data, m.Dirty)
	c.reeval(b)
}
