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
// Messages are pooled, and a protocol only ever borrows them. Sends take
// values: SendNew and SendAfter copy their template into a pooled
// message, and Broadcast copies its template once per destination. The
// network owns every message it delivers: an Endpoint's Recv borrows
// the message for the length of the call, and the message is reclaimed
// and its memory reused when the call returns.
//
// A controller's access latency is data, not code: AttachDelay records
// the latency with the endpoint, and the network calls Recv that latency
// after arrival, or at arrival for a kind whose row in the kind table
// lists the endpoint's controller class as Prompt. A Recv that must act
// later again (a response-delay hold, a request re-admitted from a
// queue) defers with HandleAfter or HandleAt, which call Recv at the
// given time. Passed the message whose Recv is running, HandleAt takes
// that message over instead of reclaiming it; passed any other message,
// it defers a pooled copy, so the caller's value stays its own. Either
// way the network frees the deferred message when that Recv returns,
// and a protocol never frees one itself. Building with -tags simdebug
// scrambles every reclaimed message, so a controller that keeps a
// borrowed pointer past Recv corrupts its own figures instead of
// failing silently.
package network

import (
	"fmt"
	"math/rand"

	"tokencmp/internal/blocktab"
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
//
// The layout is 56 bytes, within one 64-byte cache line: the three
// 64-bit fields first, then the 32-bit fields, then the flags. Every
// pooled copy (SendNew, SendAfter, Broadcast, HandleAfter of a non-live
// message) moves less than one line. A message's Figure 7 class and
// fault class are not fields: the network looks both up by Kind in the
// protocol's kind table (see Kinds).
type Message struct {
	Block  mem.Block
	Data   uint64   // modeled block value, for serial-view checking
	SentAt sim.Time // stamped by the network on send

	Src, Dst  topo.NodeID
	Requestor topo.NodeID // original requesting cache, for forwards
	Kind      int32
	Tokens    int32 // tokens carried (0 for directory protocols)
	Proc      int32 // global processor index (persistent requests)
	Aux       int32 // protocol-specific

	Owner   bool // carries the owner token
	HasData bool // carries a data payload
	Dirty   bool // data is modified relative to memory

	// pooled marks a message currently sitting in the freelist; send,
	// free and HandleAt check it to catch use-after-free early.
	pooled bool
}

func (m *Message) String() string {
	return fmt.Sprintf("msg{%v->%v %v kind=%d tok=%d own=%v data=%v}",
		m.Src, m.Dst, m.Block, m.Kind, m.Tokens, m.Owner, m.HasData)
}

// Kind is one row of a protocol's kind table: the message kind's name
// for diagnostics, its Figure 7 traffic class, its fault class and the
// controller classes that act on it as it arrives.
type Kind struct {
	Name  string
	Class stats.TrafficClass
	Fault FaultClass
	// Prompt lists the controller classes whose Recv runs on the kind's
	// arrival; every other class receives it its access latency later.
	Prompt Controllers
}

// Controllers is a set of controller classes, for Kind.Prompt.
type Controllers uint8

// The controller classes: an L1 (data or instruction), an L2 bank and a
// memory controller, as topo.KindOf places each node.
const (
	AtL1 Controllers = 1 << iota
	AtL2
	AtMem
	AtAll = AtL1 | AtL2 | AtMem
)

// controllerOf is the controller class of each kind of node.
var controllerOf = [...]Controllers{topo.L1D: AtL1, topo.L1I: AtL1, topo.L2: AtL2, topo.Mem: AtMem}

// Kinds is a protocol's kind table, indexed by Message.Kind. Each
// protocol declares its kinds once, in one table, and installs it as
// Network.Kinds. A kind the table does not list has the zero row: class
// 0 (Response Data), FaultProtected and prompt nowhere.
type Kinds []Kind

// row returns kind k's row, or the zero row for a kind t does not list.
func (t Kinds) row(k int32) Kind {
	if k >= 0 && int(k) < len(t) {
		return t[k]
	}
	return Kind{}
}

// Name returns kind k's name, or "kind(k)" for a kind t does not name.
func (t Kinds) Name(k int32) string {
	if name := t.row(k).Name; name != "" {
		return name
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Endpoint receives messages when they are due: on arrival, after the
// endpoint's access latency, or at a HandleAfter's time. Recv borrows
// the message, which is reclaimed as soon as Recv returns unless Recv
// deferred it (see the package ownership contract).
type Endpoint interface {
	Recv(m *Message)
}

// node is one attached endpoint, its access latency and its place in
// the topology: its CMP and controller class pick the link class of
// every message it sends or receives, and the class picks the kinds it
// receives on arrival.
type node struct {
	e       Endpoint
	latency sim.Time
	cmp     int32       // the CMP the node sits in
	class   Controllers // AtMem sits off-chip behind its CMP
}

// LinkParams describe one directed link.
type LinkParams struct {
	Latency    sim.Time
	BytesPerNS int // bandwidth; 0 means infinite
}

// Config holds the two link classes (Table 3 defaults via Default) and
// the fault-injection plan (zero value: a perfectly reliable network).
type Config struct {
	OnChip  LinkParams
	OffChip LinkParams
	Faults  FaultConfig
}

// Default returns the Table 3 interconnect parameters: on-chip 2 ns
// one-way at 64 GB/s; between chips 20 ns at 16 GB/s.
func Default() Config {
	return Config{
		OnChip:  LinkParams{Latency: sim.NS(2), BytesPerNS: 64},
		OffChip: LinkParams{Latency: sim.NS(20), BytesPerNS: 16},
	}
}

// Network delivers messages between endpoints.
type Network struct {
	Eng *sim.Engine
	Cfg Config

	// Dense routing state, indexed by NodeID: the topology is resolved
	// once in New, so a send never divides a NodeID by the CMP size.
	// nextFree is, per directed link (indexed src*numNodes+dst), when
	// the link's serializer frees up.
	numNodes int
	nodes    []node
	nextFree []sim.Time
	classes  [2]linkClass // indexed by onChip, offChip

	// pool holds the free messages. Messages are recycled after
	// delivery, so the steady-state send path allocates nothing.
	pool []*Message

	// live is the message whose Recv is running. HandleAt clears it
	// when it takes the message over, so handle skips the free.
	live *Message

	// Traffic accumulates the Figure 7 byte and hop counts; onChipMsgs
	// counts the messages sent over an on-chip link. TrafficCounters
	// derives the net.{msg,bytes,hop}.* counters from the two.
	Traffic    stats.Traffic
	onChipMsgs uint64

	// Fault-injection counter handles, pre-resolved by WireCounters so
	// the fault path pays one nil check and a plain word add.
	ctrDropped, ctrDup    *counters.Counter
	ctrReordered, ctrRetx *counters.Counter

	// Kinds is the protocol's kind table, installed at system
	// construction: send reads each message's Figure 7 class and fault
	// class from it. A bare network has none, so every message counts
	// as class 0 and protected.
	Kinds Kinds

	// Fault-injection state (see faults.go). frng is the single seeded
	// fault PRNG — nil unless Cfg.Faults enables a knob, so fault-free
	// runs never draw.
	frng     *rand.Rand
	faultsOn bool

	// lastArrive is, per directed link (indexed like nextFree), the
	// latest arrival scheduled on it, for the per-link FIFO clamp. It is
	// nil unless faults are on: without them the clamp is a no-op (see
	// linkClass).
	lastArrive []sim.Time

	// Monitor, if set, observes every message at delivery time, before
	// the endpoint. Tests use it for failure traces and event-order
	// fingerprints; the conservation audit reads EachInFlight instead.
	Monitor func(m *Message)

	// OnDrop, if set, observes every injected loss at its would-be
	// arrival time, before a retransmit re-sends it. Tests fold it into
	// their event-order fingerprints.
	OnDrop func(m *Message)

	// inFlight tallies the undelivered tokens and owner tokens of each
	// block for the conservation audit. A block leaves the table when
	// its last carrier lands, so it holds only blocks with carriers on
	// the wires.
	inFlight blocktab.Table[blockCount]
}

// Link classes, indexing Network.classes.
const (
	onChip uint8 = iota
	offChip
)

// linkClass is one Config link class with the serialization times of
// the two protocol message sizes, so a send divides nothing.
//
// Without faults, arrivals on one link are already in send order: a
// message departs no earlier than its predecessor and every message on
// the link pays its class's latency. Only jitter and retransmit delays
// can invert that order, so the per-link FIFO clamp that undoes them,
// and its record of each link's latest arrival (Network.lastArrive),
// exist only when the fault injector is on.
type linkClass struct {
	LinkParams
	ctrlSer, dataSer sim.Time
}

func newLinkClass(p LinkParams) linkClass {
	return linkClass{
		LinkParams: p,
		ctrlSer:    p.serialization(ControlSize),
		dataSer:    p.serialization(DataSize),
	}
}

// serialization is how long size bytes occupy a link with parameters p.
func (p LinkParams) serialization(size int) sim.Time {
	if p.BytesPerNS <= 0 {
		return 0
	}
	return sim.Time(int64(size) * int64(sim.Nanosecond) / int64(p.BytesPerNS))
}

// blockCount tallies one block's undelivered tokens and owner tokens.
type blockCount struct{ tokens, owners int32 }

// New builds a network over geometry g.
func New(eng *sim.Engine, g topo.Geometry, cfg Config) *Network {
	n := g.NumNodes()
	nw := &Network{
		Eng:      eng,
		Cfg:      cfg,
		numNodes: n,
		nodes:    make([]node, n),
		nextFree: make([]sim.Time, n*n),
	}
	nw.classes[onChip] = newLinkClass(cfg.OnChip)
	nw.classes[offChip] = newLinkClass(cfg.OffChip)
	for id := range nw.nodes {
		nd := &nw.nodes[id]
		nd.cmp = int32(g.CMPOf(topo.NodeID(id)))
		nd.class = controllerOf[g.KindOf(topo.NodeID(id))]
	}
	if cfg.Faults.Enabled() {
		nw.faultsOn = true
		nw.frng = rand.New(rand.NewSource(cfg.Faults.Seed))
		nw.lastArrive = make([]sim.Time, n*n)
	}
	return nw
}

// route returns the class of the link from src to dst and the number
// of intra-CMP traversals one message on it is charged in Figure 7.
//
// Memory controllers sit off-chip behind the CMP's memory interface
// (Table 3: "latency to mem controller 20ns (off-chip)"), so any link
// touching one uses off-chip parameters even within a CMP. Figure 7
// accounting mirrors the physical path: a message between caches on one
// chip uses that chip's interconnect once; a message that leaves a chip
// also uses the source and destination chips' interconnects when those
// ends are caches.
func (n *Network) route(srcID, dstID topo.NodeID) (lc *linkClass, intraHops int) {
	src, dst := &n.nodes[srcID], &n.nodes[dstID]
	if src.class != AtMem && dst.class != AtMem && src.cmp == dst.cmp {
		return &n.classes[onChip], 1
	}
	lc = &n.classes[offChip]
	if src.class != AtMem {
		intraHops++
	}
	if dst.class != AtMem {
		intraHops++
	}
	return lc, intraHops
}

// launched adds m's tokens to the in-flight tally; landed takes them
// off when m is delivered or dropped.
func (n *Network) launched(m *Message) {
	if m.Tokens > 0 || m.Owner {
		c := n.inFlight.At(m.Block)
		c.tokens += m.Tokens
		if m.Owner {
			c.owners++
		}
	}
}

func (n *Network) landed(m *Message) {
	if m.Tokens > 0 || m.Owner {
		c := n.inFlight.Peek(m.Block)
		c.tokens -= m.Tokens
		if m.Owner {
			c.owners--
		}
		if c.tokens == 0 && c.owners == 0 {
			n.inFlight.Delete(m.Block)
		}
	}
}

// EachInFlight calls fn, in ascending block order, for every block with
// in-flight tokens or owner tokens (the conservation auditor's view of
// the wires). It is for auditors, not hot paths.
func (n *Network) EachInFlight(fn func(b mem.Block, tokens, owners int)) {
	n.inFlight.Each(func(b mem.Block, c *blockCount) {
		fn(b, int(c.tokens), int(c.owners))
	})
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

// Attach registers the endpoint for id with no access latency: it
// receives every message on arrival.
func (n *Network) Attach(id topo.NodeID, e Endpoint) { n.AttachDelay(id, e, 0) }

// AttachDelay registers the endpoint for id with its access latency: it
// receives each message that long after arrival, unless the message's
// kind is prompt at the node's controller class (see Kind.Prompt).
func (n *Network) AttachDelay(id topo.NodeID, e Endpoint, latency sim.Time) {
	n.nodes[id].e, n.nodes[id].latency = e, latency
}

// alloc pops a message from the pool without clearing it, for callers
// that overwrite every field.
func (n *Network) alloc() *Message {
	if k := len(n.pool); k > 0 {
		m := n.pool[k-1]
		n.pool[k-1] = nil
		n.pool = n.pool[:k-1]
		return m
	}
	return new(Message)
}

// copyOf returns a pooled copy of m.
func (n *Network) copyOf(m *Message) *Message {
	cp := n.alloc()
	*cp = *m
	cp.pooled = false
	return cp
}

// free returns a message to the pool.
func (n *Network) free(m *Message) {
	if m.pooled {
		panic(fmt.Sprintf("network: double free of %v", m))
	}
	poison(m)
	m.pooled = true
	n.pool = append(n.pool, m)
}

// SendNew copies tmpl into a pooled message and sends it. This is the
// idiomatic protocol send: the literal stays on the caller's stack and
// the wire copy comes from the pool, so steady-state sends allocate
// nothing.
func (n *Network) SendNew(tmpl Message) {
	m := n.alloc()
	*m = tmpl
	n.send(m, 0, false)
}

// sendCall is the closure-free ScheduleCall target for SendAfter.
func sendCall(ctx, arg any) { ctx.(*Network).send(arg.(*Message), 0, false) }

// SendAfter sends a pooled copy of tmpl after delay d, modeling
// controller work between decision and injection. It allocates nothing.
func (n *Network) SendAfter(d sim.Time, tmpl Message) {
	m := n.alloc()
	*m = tmpl
	n.Eng.ScheduleCall(d, sendCall, n, m)
}

// handleCall is the closure-free ScheduleCall target for a deferred
// delivery and for HandleAt.
func handleCall(ctx, arg any) { ctx.(*Network).handle(arg.(*Message)) }

// HandleAfter calls the Recv of the endpoint attached at m.Dst again
// after delay d (see HandleAt). It allocates nothing.
func (n *Network) HandleAfter(d sim.Time, m *Message) {
	n.HandleAt(n.Eng.Now()+d, m)
}

// HandleAt calls the Recv of the endpoint attached at m.Dst at absolute
// time t, whatever its access latency. If m is the message whose Recv is
// running, the network takes it over instead of freeing it when that
// call returns; any other m is deferred as a pooled copy, so the
// caller's value stays its own. The network frees the deferred message
// when Recv returns, unless Recv defers it again. HandleAt panics on a
// freed message.
//
// m does not escape: the live branch schedules the pointer it already
// holds and the copy branch schedules the copy, so a caller deferring a
// stack value allocates nothing.
func (n *Network) HandleAt(t sim.Time, m *Message) {
	if m.pooled {
		panic("network: HandleAt of a freed message")
	}
	if live := n.live; live == m {
		n.live = nil
		n.Eng.ScheduleCallAt(t, handleCall, n, live)
		return
	}
	n.Eng.ScheduleCallAt(t, handleCall, n, n.copyOf(m))
}

// handle calls m's endpoint's Recv and, unless Recv deferred m again,
// reclaims m for the next send.
func (n *Network) handle(m *Message) {
	e := n.nodes[m.Dst].e
	if e == nil {
		panic(fmt.Sprintf("network: no endpoint attached for %v (message %v)", m.Dst, m))
	}
	n.live = m
	e.Recv(m)
	if n.live == m {
		n.live = nil
		n.free(m)
	}
}

// deliverCall is the closure-free ScheduleCall target for send.
func deliverCall(ctx, arg any) { ctx.(*Network).deliver(arg.(*Message)) }

// send queues the pooled message m for delivery. Messages on the same
// directed link serialize through its bandwidth; messages on different
// links are independent and may be reordered relative to each other.
//
// extra delays the message's departure beyond the link's serialization
// point (the retransmit shim's timeout); isDup marks an injected
// duplicate so a duplicate never re-duplicates.
// When fault injection is enabled the PRNG is consumed in a fixed order
// per message — jitter, reorder, duplicate, drop — so a run is a pure
// function of (fault seed, plan, workload).
func (n *Network) send(m *Message, extra sim.Time, isDup bool) {
	if m.pooled {
		panic(fmt.Sprintf("network: send of freed message %v", m))
	}
	m.SentAt = n.Eng.Now()
	// Figure 7 accounting: one entry per interconnect the message
	// traverses (see route).
	kind := n.Kinds.row(m.Kind)
	class := kind.Class
	lc, hops := n.route(m.Src, m.Dst)
	size, ser := ControlSize, lc.ctrlSer
	if m.HasData {
		// A data carrier is Writeback Data if its kind's class is
		// Writeback Control, and Response Data otherwise.
		size, ser, class = DataSize, lc.dataSer, stats.ResponseData
		if kind.Class == stats.WritebackControl {
			class = stats.WritebackData
		}
	}
	if lc == &n.classes[onChip] {
		n.onChipMsgs++
	} else {
		n.Traffic.Add(stats.InterCMP, class, size)
	}
	for h := hops; h > 0; h-- {
		n.Traffic.Add(stats.IntraCMP, class, size)
	}
	n.launched(m)

	// Fault draws, in fixed order (see send's contract). Protected
	// messages only ever see jitter; droppable messages may additionally
	// be reordered, duplicated, and dropped; retx messages may be
	// dropped (the shim re-sends them from drop).
	hold := extra
	reordered := false
	dropped := false
	if n.faultsOn {
		plan := &n.Cfg.Faults
		cls := kind.Fault
		if plan.Jitter > 0 {
			hold += sim.Time(n.frng.Int63n(int64(plan.Jitter) + 1))
		}
		if cls == FaultDroppable {
			if plan.Reorder > 0 && n.frng.Float64() < plan.Reorder {
				reordered = true
				hold += sim.Time(n.frng.Int63n(int64(4*lc.Latency) + 1))
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
				cp := n.copyOf(m)
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

	li := int(m.Src)*n.numNodes + int(m.Dst)
	depart := max(n.Eng.Now(), n.nextFree[li]) + ser
	n.nextFree[li] = depart

	arrive := depart + lc.Latency + hold
	if n.faultsOn && !reordered {
		// Per-link FIFO clamp: jitter (and retransmit delay) may not
		// reorder messages within one directed link — protocols without
		// recovery machinery rely on that order. Without faults it would
		// be a no-op (arrivals are already monotone per link; see
		// linkClass),
		// so it runs only under faults; only the explicit reorder knob
		// above bypasses it.
		last := &n.lastArrive[li]
		if arrive < *last {
			arrive = *last
		}
		*last = arrive
	}
	if dropped {
		n.Eng.ScheduleCallAt(arrive, dropCall, n, m)
		return
	}
	n.Eng.ScheduleCallAt(arrive, deliverCall, n, m)
}

func (n *Network) deliver(m *Message) {
	n.landed(m)
	if n.Monitor != nil {
		n.Monitor(m)
	}
	if nd := &n.nodes[m.Dst]; nd.latency != 0 && n.Kinds.row(m.Kind).Prompt&nd.class == 0 {
		n.Eng.ScheduleCallAt(n.Eng.Now()+nd.latency, handleCall, n, m)
		return
	}
	n.handle(m)
}

// Broadcast sends a pooled copy of template to each destination in
// dsts, skipping the source itself. The template stays caller-owned.
func (n *Network) Broadcast(template *Message, dsts []topo.NodeID) {
	for _, d := range dsts {
		if d == template.Src {
			continue
		}
		cp := n.copyOf(template)
		cp.Dst = d
		n.send(cp, 0, false)
	}
}
