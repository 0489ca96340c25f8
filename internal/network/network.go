// Package network models the two fully-connected, unordered interconnects
// of the M-CMP system: an on-chip network inside each CMP and a global
// network between CMPs (Figure 1, Table 3). Links have both latency and
// bandwidth; messages serialize on their directed source→destination
// link, so bursts queue. Delivery order between different links is
// unordered (it depends only on timing), as the paper requires of token
// coherence's substrate.
//
// # Message ownership
//
// Messages are pooled. The network owns every message it delivers: after
// an Endpoint's Recv returns, the message is reclaimed and its memory
// reused for a future send. Handlers that need a message beyond Recv
// must either copy the fields they keep or take an explicit pooled copy
// with CopyOf (returned later with Free). Building with -tags simdebug
// scrambles every reclaimed message, so a handler that breaks the
// contract corrupts its own figures instead of failing silently.
package network

import (
	"fmt"
	"math/rand"

	"tokencmp/internal/counters"
	"tokencmp/internal/mem"
	"tokencmp/internal/sim"
	"tokencmp/internal/stats"
	"tokencmp/internal/topo"
)

// Control and data message sizes in bytes (Section 8: "Data messages are
// 72 bytes and control messages 8 bytes").
const (
	ControlSize = 8
	DataSize    = 72
)

// Message is one protocol message. Kind is a protocol-private opcode;
// the token-coherence payload fields (Tokens, Owner, HasData, Data) are
// inline because the substrate's conservation monitor must see them on
// every message regardless of protocol.
type Message struct {
	Src, Dst topo.NodeID
	Block    mem.Block
	Kind     int
	Class    stats.TrafficClass
	Size     int

	// Token-coherence payload.
	Tokens  int    // tokens carried (0 for directory protocols)
	Owner   bool   // carries the owner token
	HasData bool   // carries a data payload
	Dirty   bool   // data is modified relative to memory
	Data    uint64 // modeled block value, for serial-view checking

	// Small protocol scratch fields.
	Requestor topo.NodeID // original requesting cache, for forwards
	Proc      int         // global processor index (persistent requests)
	Aux       int         // protocol-specific
	SentAt    sim.Time    // stamped by the network on send

	// pooled marks a message currently sitting in the freelist; Send and
	// Free check it to catch use-after-free and double-free early.
	pooled bool
}

func (m *Message) String() string {
	return fmt.Sprintf("msg{%v->%v %v kind=%d tok=%d own=%v data=%v}",
		m.Src, m.Dst, m.Block, m.Kind, m.Tokens, m.Owner, m.HasData)
}

// Endpoint receives delivered messages. The delivered message belongs
// to the network: it is reclaimed as soon as Recv returns (see the
// package ownership contract).
type Endpoint interface {
	Recv(m *Message)
}

// LinkParams describe one directed link.
type LinkParams struct {
	Latency    sim.Time
	BytesPerNS int // bandwidth; 0 means infinite
	Level      stats.Level
}

// Config holds the two link classes (Table 3 defaults via Default) and
// the fault-injection plans (zero value: a perfectly reliable network).
type Config struct {
	OnChip  LinkParams
	OffChip LinkParams
	Faults  FaultConfig
}

// Default returns the Table 3 interconnect parameters: on-chip 2 ns
// one-way at 64 GB/s; between chips 20 ns at 16 GB/s.
func Default() Config {
	return Config{
		OnChip:  LinkParams{Latency: sim.NS(2), BytesPerNS: 64, Level: stats.IntraCMP},
		OffChip: LinkParams{Latency: sim.NS(20), BytesPerNS: 16, Level: stats.InterCMP},
	}
}

// Network delivers messages between endpoints.
type Network struct {
	Eng  *sim.Engine
	Geom topo.Geometry
	Cfg  Config

	// Dense routing state, indexed by NodeID and src*numNodes+dst. The
	// old map lookups were the hottest line of Send/deliver profiles.
	numNodes  int
	endpoints []Endpoint
	nextFree  []sim.Time

	// free is the message pool. Messages are recycled after delivery,
	// so the steady-state send path allocates nothing.
	free []*Message

	// Traffic accumulates the Figure 7 byte and hop counts; onChipMsgs
	// counts the messages sent over an on-chip link. TrafficCounters
	// derives the net.{msg,bytes,hop}.* counters from the two.
	Traffic    stats.Traffic
	onChipMsgs uint64

	// Fault-injection counter handles, pre-resolved by WireCounters so
	// the fault path pays one nil check and a plain word add.
	ctrDropped, ctrDup    *counters.Counter
	ctrReordered, ctrRetx *counters.Counter

	// Fault-injection state (see faults.go). Classify maps a message to
	// its fault class; protocols with recovery machinery install it at
	// system construction. frng is the single seeded fault PRNG — nil
	// unless Cfg.Faults enables a knob, so fault-free runs never draw.
	// lastArrive clamps per-link delivery order under jitter: only the
	// explicit reorder knob may violate same-link FIFO.
	Classify   func(m *Message) FaultClass
	frng       *rand.Rand
	faultsOn   bool
	lastArrive []sim.Time

	// InFlight counts undelivered messages; the coherence monitor uses it
	// and tests use it to detect quiescence.
	InFlight int

	// Monitor, if set, observes every message at delivery time (before
	// the endpoint) — the token-conservation checker hooks here.
	Monitor func(m *Message)

	// OnSend, if set, observes every message as it is sent.
	OnSend func(m *Message)

	// In-flight token accounting for the conservation monitor, dense
	// by block: these counters are touched on every monitored message,
	// so the old per-message map assigns and deletes are replaced by
	// two array indexes into a paged table (see inFlightCount). Entries
	// stay zero after their tokens drain; TokenAudit-style consumers
	// skip them via EachInFlight.
	inFlight [](*[inFlightPageSize]blockCount)
}

// blockCount tallies one block's undelivered tokens and owner tokens.
type blockCount struct{ tokens, owners int32 }

// The in-flight table is a page directory over fixed-size dense pages
// allocated on first touch: workload addresses cluster into a handful
// of contiguous regions (locks at 0x100000; the commercial regions at
// 0x04_0000_0000 steps), so each region lands in one or two 64K-block
// pages and a single flat slice indexed by block — region bases reach
// block ~2^31 — would be hopeless.
const (
	inFlightPageBits = 16
	inFlightPageSize = 1 << inFlightPageBits
)

// New builds a network over geometry g.
func New(eng *sim.Engine, g topo.Geometry, cfg Config) *Network {
	n := g.NumNodes()
	nw := &Network{
		Eng:        eng,
		Geom:       g,
		Cfg:        cfg,
		numNodes:   n,
		endpoints:  make([]Endpoint, n),
		nextFree:   make([]sim.Time, n*n),
		lastArrive: make([]sim.Time, n*n),
	}
	if cfg.Faults.Enabled() {
		nw.faultsOn = true
		nw.frng = rand.New(rand.NewSource(cfg.Faults.Seed))
	}
	return nw
}

// inFlightCount returns the counter cell for block b, growing the page
// directory and allocating b's page on first touch.
func (n *Network) inFlightCount(b mem.Block) *blockCount {
	page := uint64(b) >> inFlightPageBits
	if page >= uint64(len(n.inFlight)) {
		grown := make([](*[inFlightPageSize]blockCount), page+1)
		copy(grown, n.inFlight)
		n.inFlight = grown
	}
	p := n.inFlight[page]
	if p == nil {
		p = new([inFlightPageSize]blockCount)
		n.inFlight[page] = p
	}
	return &p[uint64(b)&(inFlightPageSize-1)]
}

// TokensInFlight reports the undelivered tokens for block b.
func (n *Network) TokensInFlight(b mem.Block) int {
	if page := uint64(b) >> inFlightPageBits; page < uint64(len(n.inFlight)) && n.inFlight[page] != nil {
		return int(n.inFlight[page][uint64(b)&(inFlightPageSize-1)].tokens)
	}
	return 0
}

// OwnersInFlight reports the undelivered owner tokens for block b.
func (n *Network) OwnersInFlight(b mem.Block) int {
	if page := uint64(b) >> inFlightPageBits; page < uint64(len(n.inFlight)) && n.inFlight[page] != nil {
		return int(n.inFlight[page][uint64(b)&(inFlightPageSize-1)].owners)
	}
	return 0
}

// EachInFlight calls fn for every block with in-flight tokens or owner
// tokens (the conservation auditor's view of the wires). It scans the
// touched pages, so it is for auditors, not hot paths.
func (n *Network) EachInFlight(fn func(b mem.Block, tokens, owners int)) {
	for page, p := range n.inFlight {
		if p == nil {
			continue
		}
		for i := range p {
			if c := p[i]; c.tokens != 0 || c.owners != 0 {
				fn(mem.Block(uint64(page)<<inFlightPageBits|uint64(i)), int(c.tokens), int(c.owners))
			}
		}
	}
}

// WireCounters registers the network's fault-injection counters in cs
// (the machine-wide registry) and keeps the handles for the fault path.
func (n *Network) WireCounters(cs *counters.Set) {
	n.ctrDropped = cs.Counter(counters.NetDropped)
	n.ctrDup = cs.Counter(counters.NetDup)
	n.ctrReordered = cs.Counter(counters.NetReordered)
	n.ctrRetx = cs.Counter(counters.NetRetx)
}

// TrafficCounters adds the interconnect's traffic counters to snap,
// derived from Traffic so the two agree by construction: every
// Traffic entry is one link traversal (a hop), and only an on-chip
// message crosses the intra-CMP level without leaving its chip.
func (n *Network) TrafficCounters(snap map[string]uint64) {
	inter := n.Traffic.TotalMessages(stats.InterCMP)
	snap[counters.NetMsgIntraCMP] = n.onChipMsgs
	snap[counters.NetMsgInterCMP] = inter
	snap[counters.NetBytesIntraCMP] = n.Traffic.TotalBytes(stats.IntraCMP)
	snap[counters.NetBytesInterCMP] = n.Traffic.TotalBytes(stats.InterCMP)
	snap[counters.NetHopIntraCMP] = n.Traffic.TotalMessages(stats.IntraCMP)
	snap[counters.NetHopInterCMP] = inter
}

// Attach registers the endpoint for id.
func (n *Network) Attach(id topo.NodeID, e Endpoint) { n.endpoints[id] = e }

// NewMessage returns a zeroed message from the pool. The caller fills
// it and hands it to Send (or SendAfter), transferring ownership back
// to the network.
func (n *Network) NewMessage() *Message {
	if k := len(n.free); k > 0 {
		m := n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
		*m = Message{}
		return m
	}
	return &Message{}
}

// CopyOf returns a pooled copy of m owned by the caller — the escape
// hatch for handlers that must hold a delivered message past Recv
// (e.g. to model an array-access delay before processing). Return it
// with Free, or hand it to Send.
func (n *Network) CopyOf(m *Message) *Message {
	cp := n.NewMessage()
	*cp = *m
	cp.pooled = false
	return cp
}

// Free returns a caller-owned message to the pool.
func (n *Network) Free(m *Message) {
	if m.pooled {
		panic(fmt.Sprintf("network: double free of %v", m))
	}
	poison(m)
	m.pooled = true
	n.free = append(n.free, m)
}

// SendNew copies tmpl into a pooled message and sends it. This is the
// idiomatic protocol send: the literal stays on the caller's stack and
// the wire copy comes from the pool, so steady-state sends allocate
// nothing.
func (n *Network) SendNew(tmpl Message) {
	m := n.NewMessage()
	*m = tmpl
	n.Send(m)
}

// sendCall is the closure-free ScheduleCall target for SendAfter.
func sendCall(ctx, arg any) { ctx.(*Network).Send(arg.(*Message)) }

// SendAfter sends m (pool-owned, from NewMessage or CopyOf) after delay
// d, modeling controller work between decision and injection. It
// allocates nothing.
func (n *Network) SendAfter(d sim.Time, m *Message) {
	n.Eng.ScheduleCall(d, sendCall, n, m)
}

// link picks the parameters for src→dst. Memory controllers sit off-chip
// behind the CMP's memory interface (Table 3: "latency to mem controller
// 20ns (off-chip)"), so any link touching a memory controller uses
// off-chip parameters even within a CMP.
func (n *Network) link(src, dst topo.NodeID) LinkParams {
	if n.Geom.KindOf(src) == topo.Mem || n.Geom.KindOf(dst) == topo.Mem {
		return n.Cfg.OffChip
	}
	if n.Geom.SameCMP(src, dst) {
		return n.Cfg.OnChip
	}
	return n.Cfg.OffChip
}

// deliverCall is the closure-free ScheduleCall target for Send.
func deliverCall(ctx, arg any) { ctx.(*Network).deliver(arg.(*Message)) }

// Send queues m for delivery and takes ownership of it: after the
// receiving endpoint's Recv returns, m is reclaimed into the pool.
// Messages on the same directed link serialize through its bandwidth;
// messages on different links are independent and may be reordered
// relative to each other.
func (n *Network) Send(m *Message) { n.send(m, 0, false) }

// send is the full injection path. extra delays the message's departure
// beyond the link's serialization point (the retransmit shim's timeout);
// isDup marks an injected duplicate so a duplicate never re-duplicates.
// When fault injection is enabled the PRNG is consumed in a fixed order
// per message — jitter, reorder, duplicate, drop — so a run is a pure
// function of (fault seed, plans, workload).
func (n *Network) send(m *Message, extra sim.Time, isDup bool) {
	if m.pooled {
		panic(fmt.Sprintf("network: send of freed message %v", m))
	}
	if m.Size == 0 {
		if m.HasData {
			m.Size = DataSize
		} else {
			m.Size = ControlSize
		}
	}
	m.SentAt = n.Eng.Now()
	if n.OnSend != nil {
		n.OnSend(m)
	}
	lp := n.link(m.Src, m.Dst)
	// Traffic accounting mirrors the physical path (Figure 7): a message
	// between caches on one chip uses that chip's interconnect once; a
	// message that leaves a chip uses the source chip's interconnect, the
	// global interconnect, and — if the destination is a cache — the
	// destination chip's interconnect. Memory controllers hang off the
	// global side, so their hops add no on-chip traffic.
	if lp.Level == stats.IntraCMP {
		n.Traffic.Add(stats.IntraCMP, m.Class, m.Size)
		n.onChipMsgs++
	} else {
		n.Traffic.Add(stats.InterCMP, m.Class, m.Size)
		if n.Geom.KindOf(m.Src) != topo.Mem {
			n.Traffic.Add(stats.IntraCMP, m.Class, m.Size)
		}
		if n.Geom.KindOf(m.Dst) != topo.Mem {
			n.Traffic.Add(stats.IntraCMP, m.Class, m.Size)
		}
	}
	n.InFlight++
	if m.Tokens > 0 || m.Owner {
		c := n.inFlightCount(m.Block)
		c.tokens += int32(m.Tokens)
		if m.Owner {
			c.owners++
		}
	}

	// Fault draws, in fixed order (see send's contract). Protected
	// messages only ever see jitter; droppable messages may additionally
	// be reordered, duplicated, and dropped; retx messages may be
	// dropped (the shim re-sends them from drop).
	hold := extra
	reordered := false
	dropped := false
	if n.faultsOn {
		plan := n.plan(lp)
		cls := n.classOf(m)
		if plan.Jitter > 0 {
			hold += sim.Time(n.frng.Int63n(int64(plan.Jitter) + 1))
		}
		if cls == FaultDroppable {
			if plan.Reorder > 0 && n.frng.Float64() < plan.Reorder {
				reordered = true
				w := plan.ReorderWindow
				if w == 0 {
					w = 4 * lp.Latency
				}
				hold += sim.Time(n.frng.Int63n(int64(w) + 1))
				if n.ctrReordered != nil {
					n.ctrReordered.Inc()
				}
			}
			// Duplicates are restricted to token-free control messages:
			// duplicating a token or data carrier would mint tokens and
			// break conservation, which no receiver-side dedup exists to
			// absorb. Droppable classes are token-free by policy anyway;
			// the guard makes the invariant local.
			if !isDup && plan.Dup > 0 && m.Tokens == 0 && !m.Owner && !m.HasData &&
				n.frng.Float64() < plan.Dup {
				cp := n.CopyOf(m)
				if n.ctrDup != nil {
					n.ctrDup.Inc()
				}
				n.send(cp, extra, true)
			}
		}
		if cls != FaultProtected && plan.Drop > 0 && n.frng.Float64() < plan.Drop {
			dropped = true
		}
	}

	ser := sim.Time(0)
	if lp.BytesPerNS > 0 {
		ser = sim.Time(int64(m.Size) * int64(sim.Nanosecond) / int64(lp.BytesPerNS))
	}
	key := int(m.Src)*n.numNodes + int(m.Dst)
	depart := n.Eng.Now()
	if free := n.nextFree[key]; free > depart {
		depart = free
	}
	depart += ser
	n.nextFree[key] = depart

	arrive := depart + lp.Latency + hold
	if !reordered {
		// Per-link FIFO clamp: jitter (and retransmit delay) may not
		// reorder messages within one directed link — protocols without
		// recovery machinery rely on that order. Without faults this is
		// a no-op (arrivals are already monotone per link); only the
		// explicit reorder knob above bypasses it.
		if last := n.lastArrive[key]; arrive < last {
			arrive = last
		}
		n.lastArrive[key] = arrive
	}
	if dropped {
		n.Eng.ScheduleCallAt(arrive, dropCall, n, m)
		return
	}
	n.Eng.ScheduleCallAt(arrive, deliverCall, n, m)
}

func (n *Network) deliver(m *Message) {
	n.InFlight--
	if m.Tokens > 0 || m.Owner {
		c := n.inFlightCount(m.Block)
		c.tokens -= int32(m.Tokens)
		if m.Owner {
			c.owners--
		}
	}
	if n.Monitor != nil {
		n.Monitor(m)
	}
	ep := n.endpoints[m.Dst]
	if ep == nil {
		panic(fmt.Sprintf("network: no endpoint attached for %v (message %v)", m.Dst, m))
	}
	ep.Recv(m)
	// The ownership contract: the endpoint is done with m once Recv
	// returns; reclaim it for the next send.
	n.Free(m)
}

// Broadcast sends a pooled copy of template to each destination in
// dsts, skipping the source itself. The template stays caller-owned.
func (n *Network) Broadcast(template *Message, dsts []topo.NodeID) {
	for _, d := range dsts {
		if d == template.Src {
			continue
		}
		cp := n.NewMessage()
		*cp = *template
		cp.pooled = false
		cp.Dst = d
		n.Send(cp)
	}
}
