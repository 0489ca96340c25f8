package models

import (
	"fmt"
	"sync"

	"tokencmp/internal/mc"
)

// HammerModel is the flat model of the HammerCMP broadcast protocol
// (internal/hammercmp): a MOESI protocol with no directory and no
// tokens, where the home serializes transactions per block, broadcasts
// probes to every cache except the requester, and speculatively reads
// memory; the requester completes once every cache and the memory have
// answered, preferring cache data over the possibly-stale memory data.
//
// The model's job is the broadcast race window: the messages of one
// broadcast — probes, acks, data, and the stale speculative memory
// response — interleaving with silent stores, upgrades that lose their
// line to a probe, writebacks whose only data copy sits in a departure
// buffer, and the next queued broadcast. The checker verifies that the
// home's per-block serialization closes the window: no interleaving
// reaches two simultaneous owners, a readable stale copy, or a state
// where the latest value survives nowhere. As in the other models, L2
// victim-cache detail is flattened away (writebacks go straight to the
// home), exactly as the paper flattens intra-CMP detail.
//
// Its methods are safe for concurrent use, as required by the parallel
// checker in internal/mc: all mutable state lives in pooled per-call
// scratch.
type HammerModel struct {
	caches  int
	maxMsgs int

	// Packed layout (fixed width, offsets precomputed per config):
	//
	//	[0, offN)        caches × 3 bytes [st|out<<3|wb<<5][7 collection flag bits][resp]
	//	[offN]           in-flight message count
	//	[offM, offT)     slots × 4-byte records [kind][to+1][p][cur|migr<<1|shared<<2],
	//	                 byte-sorted, unused slots 0xFF; slots = maxMsgs payload
	//	                 messages + one request and one Put per processor + one Done
	//	[offT, width)    [memCur][busy+1][busyWB+1]
	offN, offM, offT, width int
	slots                   int

	// sym describes the layout's cache symmetry for the checker's
	// canonicalization.
	sym *mc.Symmetry

	pool sync.Pool // *hscratch
}

const hmsgW = 4 // packed hmsg record width

// Writeback-buffer states.
const (
	wbNone     = iota
	wbCurrent  // valid, holds the latest value
	wbStale    // valid, holds a superseded value (cannot happen; checked)
	wbConsumed // a probe took the copy; the grant will be cancelled
)

// hcache is one cache's view: MOESI state, the data-independence bit,
// the outstanding-request collection counters, and the writeback
// buffer.
type hcache struct {
	St  int // 0=I 1=S 2=E 3=M 4=O
	Cur bool
	Out int // outstanding request: 0 none, 1 GetS, 2 GetM
	WB  int // writeback buffer state

	// Broadcast collection (live while Out != 0 and the home has
	// admitted the request).
	Resp    int // cache responses still expected
	MemWait bool
	GotData bool
	GotCur  bool
	GotMigr bool
	Shared  bool
	MemCur  bool
}

// hmsg is one in-flight protocol message.
type hmsg struct {
	Kind   int
	To     int // destination cache (or -1 for the home)
	P      int // requester / evictor
	Cur    bool
	Migr   bool
	Shared bool
}

// Hammer-model message kinds.
const (
	hmGetS = iota
	hmGetM
	hmProbeS
	hmProbeM
	hmAck
	hmData
	hmMemData
	hmDone
	hmPut
	hmWbGrant
	hmWbData
	hmWbCancel
)

// hstate is a full model state.
type hstate struct {
	C      []hcache
	Msgs   []hmsg
	MemCur bool
	Busy   int // requester whose broadcast holds the block, or -1
	BusyWB int // evictor whose writeback holds the block, or -1
}

// hscratch is one worker's reusable decode/encode workspace.
type hscratch struct {
	cur, next hstate
	key       []byte
}

// NewHammerModel builds the flat broadcast model.
func NewHammerModel(caches, maxMsgs int) *HammerModel {
	m := &HammerModel{caches: caches, maxMsgs: maxMsgs}
	// Payload messages (probes, acks, data, memory and writeback data)
	// are bounded by maxMsgs; the home's input queue additionally holds
	// at most one request and one Put per processor (Out and the WB
	// buffer gate re-issue) plus the single in-flight Done.
	m.slots = maxMsgs + 2*caches + 1
	// The message count is one byte, so the reachable message bound —
	// not just caches itself — must stay under 255, or encode would
	// wrap and silently merge distinct states.
	if caches < 1 || maxMsgs < 1 || maxMsgs > 60 || m.slots > 255 {
		panic(fmt.Sprintf("models: hammer config out of packed-encoding range: caches=%d maxMsgs=%d", caches, maxMsgs))
	}
	m.offN = 3 * caches
	m.offM = m.offN + 1
	m.offT = m.offM + hmsgW*m.slots
	m.width = m.offT + 3
	// Cache symmetry: the cache records are one per-cache group; message
	// records carry a +1-encoded destination (0 names the home) and a
	// plain requester index; the trailer holds +1-encoded busy/busyWB
	// references.
	m.sym = &mc.Symmetry{
		Caches: caches,
		Groups: []mc.Group{{Off: 0, Stride: 3}},
		Refs: []mc.Ref{
			{Off: m.offT + 1, Enc: mc.RefPlus1}, // busy
			{Off: m.offT + 2, Enc: mc.RefPlus1}, // busyWB
		},
		Slots: []mc.SlotRegion{{
			CountOff: m.offN, Off: m.offM, W: hmsgW,
			Refs: []mc.Ref{{Off: 1, Enc: mc.RefPlus1}, {Off: 2, Enc: mc.RefPlain}},
		}},
	}
	m.pool.New = func() any {
		return &hscratch{
			cur:  m.newState(),
			next: m.newState(),
			key:  make([]byte, m.width),
		}
	}
	return m
}

func (m *HammerModel) newState() hstate {
	return hstate{
		C:    make([]hcache, m.caches),
		Msgs: make([]hmsg, 0, m.slots+1),
	}
}

// Name implements mc.Model.
func (m *HammerModel) Name() string { return "HammerCMP-flat" }

// Symmetry implements mc.Symmetric: the home broadcasts to all caches
// and collects an unordered response set, so the rules never order the
// caches.
func (m *HammerModel) Symmetry() *mc.Symmetry { return m.sym }

// encode packs s into key (len m.width), canonicalizing message order
// by direct byte comparison of the packed records.
func (m *HammerModel) encode(s *hstate, key []byte) {
	for i, c := range s.C {
		key[3*i] = byte(c.St) | byte(c.Out)<<3 | byte(c.WB)<<5
		key[3*i+1] = flag(c.Cur, 0) | flag(c.MemWait, 1) | flag(c.GotData, 2) |
			flag(c.GotCur, 3) | flag(c.GotMigr, 4) | flag(c.Shared, 5) | flag(c.MemCur, 6)
		key[3*i+2] = byte(c.Resp)
	}
	key[m.offN] = byte(len(s.Msgs))
	for k, msg := range s.Msgs {
		off := m.offM + hmsgW*k
		key[off] = byte(msg.Kind)
		key[off+1] = byte(msg.To + 1)
		key[off+2] = byte(msg.P)
		key[off+3] = flag(msg.Cur, 0) | flag(msg.Migr, 1) | flag(msg.Shared, 2)
	}
	mc.SortSlots(key[m.offM:m.offT], len(s.Msgs), hmsgW)
	padSlots(key[m.offM:m.offT], len(s.Msgs), m.slots, hmsgW)
	t := key[m.offT:]
	t[0] = flag(s.MemCur, 0)
	t[1] = byte(s.Busy + 1)
	t[2] = byte(s.BusyWB + 1)
}

// decode unpacks key into s (whose slices are pre-sized scratch).
func (m *HammerModel) decode(key string, s *hstate) {
	s.C = s.C[:m.caches]
	for i := range s.C {
		b0, fl := key[3*i], key[3*i+1]
		s.C[i] = hcache{
			St:      int(b0 & 7),
			Out:     int(b0 >> 3 & 3),
			WB:      int(b0 >> 5 & 3),
			Cur:     fl&1 != 0,
			MemWait: fl&2 != 0,
			GotData: fl&4 != 0,
			GotCur:  fl&8 != 0,
			GotMigr: fl&16 != 0,
			Shared:  fl&32 != 0,
			MemCur:  fl&64 != 0,
			Resp:    int(key[3*i+2]),
		}
	}
	s.Msgs = s.Msgs[:0]
	for k := 0; k < int(key[m.offN]); k++ {
		off := m.offM + hmsgW*k
		s.Msgs = append(s.Msgs, hmsg{
			Kind:   int(key[off]),
			To:     int(key[off+1]) - 1,
			P:      int(key[off+2]),
			Cur:    key[off+3]&1 != 0,
			Migr:   key[off+3]&2 != 0,
			Shared: key[off+3]&4 != 0,
		})
	}
	t := key[m.offT:]
	s.MemCur = t[0]&1 != 0
	s.Busy = int(t[1]) - 1
	s.BusyWB = int(t[2]) - 1
}

// stage copies the decoded state into the scratch successor, which the
// caller mutates and emits before the next stage call.
func (m *HammerModel) stage(sc *hscratch) *hstate {
	s, n := &sc.cur, &sc.next
	n.C = n.C[:len(s.C)]
	copy(n.C, s.C)
	n.Msgs = append(n.Msgs[:0], s.Msgs...)
	n.MemCur, n.Busy, n.BusyWB = s.MemCur, s.Busy, s.BusyWB
	return n
}

// emit packs the staged successor and hands it to the checker.
func (m *HammerModel) emit(sb *mc.SuccBuf, sc *hscratch, n *hstate) {
	m.encode(n, sc.key)
	sb.Emit(sc.key)
}

// Initial implements mc.Model.
func (m *HammerModel) Initial() []string {
	s := &hstate{C: make([]hcache, m.caches), MemCur: true, Busy: -1, BusyWB: -1}
	key := make([]byte, m.width)
	m.encode(s, key)
	return []string{string(key)}
}

// hammerPayloadCount counts bounded messages. Requests, puts, and
// dones model the home's input queue (at most a few entries per
// processor) and must never block, or the protocol would deadlock.
func hammerPayloadCount(s *hstate) int {
	n := 0
	for _, msg := range s.Msgs {
		switch msg.Kind {
		case hmGetS, hmGetM, hmPut, hmDone:
		default:
			n++
		}
	}
	return n
}

// store performs processor p's write: its copy becomes the single
// current one; every other copy, buffered writeback, and the memory
// image go stale.
func (m *HammerModel) store(n *hstate, p int) {
	for q := range n.C {
		n.C[q].Cur = q == p
		if q != p && n.C[q].WB == wbCurrent {
			n.C[q].WB = wbStale
		}
	}
	n.MemCur = false
}

// Successors implements mc.Model.
func (m *HammerModel) Successors(key string, sb *mc.SuccBuf) {
	sc := m.pool.Get().(*hscratch)
	defer m.pool.Put(sc)
	s := &sc.cur
	m.decode(key, s)

	// 1. Processor actions: issue requests, store silently, evict.
	for p := 0; p < m.caches; p++ {
		c := s.C[p]
		if c.Out == 0 {
			if c.St == 0 { // I: read or write request (even with a WB pending)
				for _, kind := range []int{hmGetS, hmGetM} {
					n := m.stage(sc)
					if kind == hmGetS {
						n.C[p].Out = 1
					} else {
						n.C[p].Out = 2
					}
					n.Msgs = append(n.Msgs, hmsg{Kind: kind, To: -1, P: p})
					m.emit(sb, sc, n)
				}
			}
			if c.St == 1 || c.St == 4 { // S or O: upgrade
				n := m.stage(sc)
				n.C[p].Out = 2
				n.Msgs = append(n.Msgs, hmsg{Kind: hmGetM, To: -1, P: p})
				m.emit(sb, sc, n)
			}
		}
		if c.St == 2 || c.St == 3 { // E or M: silent store
			n := m.stage(sc)
			n.C[p].St = 3
			m.store(n, p)
			m.emit(sb, sc, n)
		}
		if (c.St == 3 || c.St == 4) && c.WB == wbNone { // M or O: evict
			n := m.stage(sc)
			if c.Cur {
				n.C[p].WB = wbCurrent
			} else {
				n.C[p].WB = wbStale
			}
			n.C[p].St = 0
			n.C[p].Cur = false
			n.Msgs = append(n.Msgs, hmsg{Kind: hmPut, To: -1, P: p})
			m.emit(sb, sc, n)
		}
		if c.St == 1 || c.St == 2 { // S or E: silent clean drop
			n := m.stage(sc)
			n.C[p].St = 0
			n.C[p].Cur = false
			m.emit(sb, sc, n)
		}
	}

	// 2. Message deliveries.
	for k := range s.Msgs {
		msg := s.Msgs[k]
		n := m.stage(sc)
		n.Msgs = append(n.Msgs[:k], n.Msgs[k+1:]...)
		switch msg.Kind {
		case hmGetS, hmGetM:
			if s.Busy != -1 || s.BusyWB != -1 {
				continue // home serializes: the request stays queued
			}
			// A broadcast emits caches-1 probes plus the memory response.
			if hammerPayloadCount(n)+m.caches > m.maxMsgs {
				continue // bounded-network throttling
			}
			p := msg.P
			n.Busy = p
			probe := hmProbeS
			if msg.Kind == hmGetM {
				probe = hmProbeM
			}
			for q := 0; q < m.caches; q++ {
				if q != p {
					n.Msgs = append(n.Msgs, hmsg{Kind: probe, To: q, P: p})
				}
			}
			n.Msgs = append(n.Msgs, hmsg{Kind: hmMemData, To: p, P: p, Cur: n.MemCur})
			rc := &n.C[p]
			rc.Resp = m.caches - 1
			rc.MemWait = true
			rc.GotData, rc.GotCur, rc.GotMigr, rc.Shared, rc.MemCur = false, false, false, false, false
		case hmProbeS:
			q := msg.To
			c := &n.C[q]
			switch {
			case c.St == 3: // M: migratory handoff
				n.Msgs = append(n.Msgs, hmsg{Kind: hmData, To: msg.P, P: msg.P, Cur: c.Cur, Migr: true, Shared: true})
				c.St = 0
				c.Cur = false
			case c.St == 4: // O: supply data, stay owner
				n.Msgs = append(n.Msgs, hmsg{Kind: hmData, To: msg.P, P: msg.P, Cur: c.Cur, Shared: true})
			case c.St == 2: // E: supply data, degrade
				n.Msgs = append(n.Msgs, hmsg{Kind: hmData, To: msg.P, P: msg.P, Cur: c.Cur, Shared: true})
				c.St = 1
			case c.St == 1: // S
				n.Msgs = append(n.Msgs, hmsg{Kind: hmAck, To: msg.P, P: msg.P, Shared: true})
			case c.WB == wbCurrent || c.WB == wbStale: // data in the departure buffer
				n.Msgs = append(n.Msgs, hmsg{Kind: hmData, To: msg.P, P: msg.P, Cur: c.WB == wbCurrent, Shared: true})
			default:
				n.Msgs = append(n.Msgs, hmsg{Kind: hmAck, To: msg.P, P: msg.P})
			}
		case hmProbeM:
			q := msg.To
			c := &n.C[q]
			switch {
			case c.St >= 2: // E, M, O: surrender the data
				n.Msgs = append(n.Msgs, hmsg{Kind: hmData, To: msg.P, P: msg.P, Cur: c.Cur, Shared: true})
				c.St = 0
				c.Cur = false
			case c.St == 1: // S: surrender the copy
				n.Msgs = append(n.Msgs, hmsg{Kind: hmAck, To: msg.P, P: msg.P, Shared: true})
				c.St = 0
				c.Cur = false
			case c.WB == wbCurrent || c.WB == wbStale:
				n.Msgs = append(n.Msgs, hmsg{Kind: hmData, To: msg.P, P: msg.P, Cur: c.WB == wbCurrent, Shared: true})
				c.WB = wbConsumed
			default:
				n.Msgs = append(n.Msgs, hmsg{Kind: hmAck, To: msg.P, P: msg.P})
			}
		case hmAck:
			c := &n.C[msg.To]
			c.Resp--
			if msg.Shared {
				c.Shared = true
			}
			m.maybeComplete(n, msg.To)
		case hmData:
			c := &n.C[msg.To]
			c.Resp--
			c.GotData = true
			c.GotCur = msg.Cur
			if msg.Migr {
				c.GotMigr = true
			}
			c.Shared = true
			m.maybeComplete(n, msg.To)
		case hmMemData:
			c := &n.C[msg.To]
			c.MemWait = false
			c.MemCur = msg.Cur
			m.maybeComplete(n, msg.To)
		case hmDone:
			n.Busy = -1
		case hmPut:
			if s.Busy != -1 || s.BusyWB != -1 {
				continue // home serializes writebacks too
			}
			if hammerPayloadCount(n)+1 > m.maxMsgs {
				continue
			}
			n.BusyWB = msg.P
			n.Msgs = append(n.Msgs, hmsg{Kind: hmWbGrant, To: msg.P, P: msg.P})
		case hmWbGrant:
			c := &n.C[msg.To]
			switch c.WB {
			case wbCurrent, wbStale:
				n.Msgs = append(n.Msgs, hmsg{Kind: hmWbData, To: -1, P: msg.P, Cur: c.WB == wbCurrent})
			case wbConsumed:
				n.Msgs = append(n.Msgs, hmsg{Kind: hmWbCancel, To: -1, P: msg.P})
			default:
				continue // grant without a buffered writeback: unreachable
			}
			c.WB = wbNone
		case hmWbData:
			n.MemCur = msg.Cur
			n.BusyWB = -1
		case hmWbCancel:
			n.BusyWB = -1
		}
		m.emit(sb, sc, n)
	}
}

// maybeComplete finishes p's transaction once every cache and the
// memory have answered, reproducing the implementation's data
// preference: probe data, then the surviving own copy, then the own
// departure buffer, then the speculative memory response.
func (m *HammerModel) maybeComplete(n *hstate, p int) {
	c := &n.C[p]
	if c.Out == 0 || c.Resp > 0 || c.MemWait {
		return
	}
	var cur, fromWB bool
	switch {
	case c.GotData:
		cur = c.GotCur
	case c.St != 0: // upgrade whose copy survived the broadcast
		cur = c.Cur
	case c.WB == wbCurrent || c.WB == wbStale: // we still own the block
		cur = c.WB == wbCurrent
		c.WB = wbConsumed
		fromWB = true
	default:
		cur = c.MemCur
	}
	if c.Out == 1 { // GetS
		switch {
		case c.GotMigr:
			c.St = 3
		case fromWB:
			// Still the owner, but not exclusive: a ProbeS may have
			// handed shared copies out of the departure buffer.
			c.St = 4
		case c.GotData || c.Shared:
			c.St = 1
		default:
			c.St = 2 // exclusive-clean
		}
	} else { // GetM; the store is a separate, subsequent transition
		c.St = 3
	}
	c.Cur = cur
	c.Out = 0
	c.Resp = 0
	c.GotData, c.GotCur, c.GotMigr, c.Shared, c.MemCur = false, false, false, false, false
	n.Msgs = append(n.Msgs, hmsg{Kind: hmDone, To: -1, P: p})
}

// Check implements mc.Model. It decodes into pooled scratch: the value-
// preservation invariant needs the full cache and message view.
func (m *HammerModel) Check(key string) error {
	sc := m.pool.Get().(*hscratch)
	defer m.pool.Put(sc)
	s := &sc.cur
	m.decode(key, s)
	owners := 0
	for i, c := range s.C {
		if c.St >= 2 {
			owners++
		}
		if c.St != 0 && !c.Cur {
			return fmt.Errorf("cache %d readable in %d with stale data (serial view violated)", i, c.St)
		}
	}
	if owners > 1 {
		return fmt.Errorf("coherence invariant violated: %d owners", owners)
	}
	for i, c := range s.C {
		if c.St != 2 && c.St != 3 {
			continue
		}
		// E/M exclusivity: no other copy may exist, cached or buffered.
		for j, o := range s.C {
			if j == i {
				continue
			}
			if o.St != 0 || o.WB == wbCurrent || o.WB == wbStale {
				return fmt.Errorf("cache %d exclusive in %d but cache %d holds st=%d wb=%d",
					i, c.St, j, o.St, o.WB)
			}
		}
	}
	// Value preservation: the latest value must survive somewhere — in a
	// cache, a writeback buffer, memory, or an in-flight message.
	if !s.MemCur {
		alive := false
		for _, c := range s.C {
			if (c.St != 0 && c.Cur) || c.WB == wbCurrent {
				alive = true
			}
			// A requester mid-collection may hold the only current copy
			// in its response buffer (e.g. a migratory handoff received
			// while the memory response is still in flight).
			if c.Out != 0 && c.GotData && c.GotCur {
				alive = true
			}
		}
		for _, msg := range s.Msgs {
			if msg.Cur && (msg.Kind == hmData || msg.Kind == hmMemData || msg.Kind == hmWbData) {
				alive = true
			}
		}
		if !alive {
			return fmt.Errorf("latest value lost: memory stale and no current copy survives")
		}
	}
	return nil
}

// Quiescent implements mc.Model.
func (m *HammerModel) Quiescent(key string) bool {
	t := key[m.offT:]
	return key[m.offN] == 0 && !m.Pending(key) && t[1] == 0 && t[2] == 0 // busy == busyWB == -1
}

// Pending implements mc.Model.
func (m *HammerModel) Pending(key string) bool {
	for i := 0; i < m.caches; i++ {
		if key[3*i]&(3<<3|3<<5) != 0 { // out != 0 or wb != wbNone
			return true
		}
	}
	return false
}

// Satisfying implements mc.Model.
func (m *HammerModel) Satisfying(key string) bool { return !m.Pending(key) }
