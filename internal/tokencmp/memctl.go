package tokencmp

import (
	"fmt"

	"tokencmp/internal/blocktab"
	"tokencmp/internal/hier"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
	"tokencmp/internal/token"
	"tokencmp/internal/topo"
)

// MemCtrl is a TokenCMP memory controller. Memory is just another token
// holder in the flat substrate: per block it stores a token count (all T
// initially, with the owner token and the backing data) and, in the
// arbiter-based variants, it hosts the persistent-request arbiter for its
// home blocks.
type MemCtrl struct {
	base
	cmp   int
	store blocktab.Table[token.State] // a block is materialized once present
	arb   token.Arbiter
}

func (sys *System) newMem(id topo.NodeID, cmp int) *MemCtrl {
	c := &MemCtrl{cmp: cmp}
	c.initTables(sys, id)
	c.accessLatency = hier.MemLatency
	c.dataDelay = hier.DRAMLatency
	c.isMem = true
	c.lookup = func(b mem.Block) *token.State { return c.stateFor(b) }
	return c
}

// isHome reports whether this controller is block b's home.
func (c *MemCtrl) isHome(b mem.Block) bool {
	return c.sys.Geom.HomeMem(b) == c.id
}

// stateFor lazily materializes a home block: all T tokens at memory,
// owner, clean data with the initial value zero. Blocks homed elsewhere
// have no state here (tokens exist in exactly one memory), so stateFor
// returns nil for them unless tokens were explicitly delivered.
func (c *MemCtrl) stateFor(b mem.Block) *token.State {
	if !c.isHome(b) {
		return c.store.Peek(b)
	}
	s, fresh := c.store.Insert(b)
	if fresh {
		*s = token.State{Tokens: c.sys.T, Owner: true, HasData: true}
	}
	return s
}

// Touched lists blocks that have materialized state, in ascending
// block order so audit passes visit them deterministically.
func (c *MemCtrl) Touched() []mem.Block { return c.store.Blocks() }

// StateOf returns the memory-side state for b without materializing.
func (c *MemCtrl) StateOf(b mem.Block) (*token.State, bool) {
	s := c.store.Peek(b)
	return s, s != nil
}

// Recv implements network.Endpoint. Requests, writebacks and arbiter
// messages arrive after the controller's array-access delay; the
// persistent-table messages act on arrival (see the Prompt column of
// kinds).
func (c *MemCtrl) Recv(m *network.Message) {
	switch m.Kind {
	case kTransient:
		c.handleRequest(m)
	case kWriteback, kResponse:
		c.handleWriteback(m)
	case kArbRequest:
		c.handleArbRequest(m)
	case kArbDone:
		c.handleArbDone(m)
	default:
		if c.handlePersistentMsg(m) {
			return
		}
		panic(fmt.Sprintf("tokencmp: mem %v cannot handle %s", c.id, kinds.Name(m.Kind)))
	}
}

func (c *MemCtrl) handleRequest(m *network.Message) {
	b := m.Block
	if c.transientBlocked(b, m.Requestor) {
		return
	}
	s := c.stateFor(b)
	if s == nil || s.Tokens == 0 {
		return
	}
	var tmpl network.Message
	switch {
	case token.ReqKind(m.Aux) == token.ReqWrite:
		tmpl = takeAll(s)
	case s.Owner && (s.Tokens == c.sys.T || s.Tokens < 2):
		// Read: when memory holds every token, hand them all over — the
		// exclusive-clean (E state) analog, letting the reader upgrade to
		// a write silently (§4's "respond to a read request with all T
		// tokens"). An owner-only memory hands over ownership.
		tmpl = takeAll(s)
	case s.Owner:
		// Otherwise send data plus up to C tokens so future requests in
		// the reader's CMP hit locally.
		n := min(c.sys.Geom.CachesPerCMP(), s.Tokens-1)
		s.Tokens -= n
		tmpl = network.Message{Tokens: int32(n), HasData: true, Data: s.Data}
	default:
		return // token-only memory stays silent on reads; the owner cache responds
	}
	c.address(&tmpl, m.Requestor, b)
	delay := sim.Time(0)
	if tmpl.HasData {
		delay = hier.DRAMLatency
		c.sys.ctr.memRead.Inc()
	}
	c.sys.Net.SendAfter(delay, tmpl)
}

func (c *MemCtrl) handleWriteback(m *network.Message) {
	c.sys.ctr.memWrite.Inc()
	// A non-home controller materializes an empty state (tokens should
	// not arrive there, but the substrate must never lose tokens).
	s := c.store.At(m.Block)
	s.Merge(int(m.Tokens), m.Owner, m.HasData, m.Data, m.Dirty)
	if s.Owner {
		s.Dirty = false // memory is the backing store
	}
	c.reeval(m.Block)
}

// handleArbRequest implements the arbiter side of the original
// persistent-request scheme: fair FIFO per block, one activation at a
// time, activation and deactivation broadcast to every endpoint.
func (c *MemCtrl) handleArbRequest(m *network.Message) {
	rk := token.ReqKind(m.Aux)
	if c.arb.Request(m.Block, int(m.Proc), rk, m.Requestor) {
		c.broadcastActivate(m.Block, rk, m.Requestor, int(m.Proc))
	}
}

func (c *MemCtrl) handleArbDone(m *network.Message) {
	// Deactivate everywhere, then activate the next queued request.
	wasActive, hasNext := c.arb.Cancel(m.Block, int(m.Proc))
	if wasActive {
		tmpl := &network.Message{
			Src:   c.id,
			Block: m.Block,
			Kind:  kArbDeactivate,
			Proc:  m.Proc,
		}
		c.sys.Net.Broadcast(tmpl, c.sys.allEndpoints)
		c.atable.Deactivate(m.Block, int(m.Proc))
	}
	if hasNext {
		e, _ := c.arb.ActiveFor(m.Block)
		c.broadcastActivate(m.Block, e.Kind, e.Dest, e.Proc)
	}
}

func (c *MemCtrl) broadcastActivate(b mem.Block, rk token.ReqKind, dest topo.NodeID, proc int) {
	tmpl := &network.Message{
		Src:       c.id,
		Block:     b,
		Kind:      kArbActivate,
		Aux:       int32(rk),
		Requestor: dest,
		Proc:      int32(proc),
	}
	c.sys.Net.Broadcast(tmpl, c.sys.allEndpoints)
	// Activate locally too (Broadcast skips the source).
	c.atable.Activate(b, rk, dest, proc)
	c.reeval(b)
}
