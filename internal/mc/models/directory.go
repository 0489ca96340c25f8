package models

import (
	"fmt"
	"math/bits"
	"sync"

	"tokencmp/internal/mc"
)

// DirModel is the simplified, non-hierarchical directory protocol the
// paper checks against the token substrate: a blocking MSI directory
// with explicit forward, invalidation, acknowledgment, data, unblock,
// and three-phase writeback messages. All intra-CMP detail is omitted,
// exactly as in the paper (a full hierarchical model is intractable).
// Its methods are safe for concurrent use, as required by the parallel
// checker in internal/mc: all mutable state lives in pooled per-call
// scratch.
type DirModel struct {
	caches  int
	maxMsgs int

	// Packed layout (fixed width, offsets precomputed per config):
	//
	//	[0, offN)        caches × 2 bytes [st|out<<2|current<<4|waitWB<<5][acks int8]
	//	[offN]           in-flight message count
	//	[offM, offD)     slots × 5-byte records [kind][to+1][p][cur|excl<<1][acks int8],
	//	                 byte-sorted, unused slots 0xFF; slots = maxMsgs payload
	//	                 messages + one request and one writeback per processor
	//	[offD, width)    directory: [owner+1][sharers ×4 LE][memCur|busyWB<<1][busy+1][busyOwn+1]
	offN, offM, offD, width int
	slots                   int

	// sym describes the layout's cache symmetry for the checker's
	// canonicalization.
	sym *mc.Symmetry

	pool sync.Pool // *dscratch
}

const dmsgW = 5 // packed dmsg record width

// dcache is one cache's view: MSI state plus the data-independence bit.
type dcache struct {
	St      int // 0=I 1=S 2=M
	Current bool
	Out     int // outstanding request: 0 none, 1 GetS, 2 GetM
	Acks    int // invalidation acks still owed to this requester
	WaitWB  bool
}

// dmsg is one in-flight protocol message.
type dmsg struct {
	Kind int // message kinds below
	To   int // destination cache (or -1 for the directory)
	P    int // subject processor (requester / evictor)
	Cur  bool
	Acks int
	Excl bool // data grants M
}

// Directory-model message kinds.
const (
	dGetS = iota
	dGetM
	dFwdS // directory → owner: degrade and send data
	dFwdM // directory → owner: invalidate and send data
	dInv
	dAck
	dData
	dUnblock
	dPut
	dWbGrant
	dWbData
)

// dstate is a full model state.
type dstate struct {
	C       []dcache
	Msgs    []dmsg
	Owner   int // owning cache or -1 (memory)
	Sharers uint32
	MemCur  bool
	Busy    int // processor whose transaction holds the directory, or -1
	BusyOwn int // owner when the current transaction started (-1 memory)
	BusyWB  bool
}

// dscratch is one worker's reusable decode/encode workspace.
type dscratch struct {
	cur, next dstate
	key       []byte
}

// NewDirModel builds the flat directory model.
func NewDirModel(caches, maxMsgs int) *DirModel {
	if caches < 1 || caches > 30 || maxMsgs < 1 || maxMsgs > 60 {
		panic(fmt.Sprintf("models: directory config out of packed-encoding range: caches=%d maxMsgs=%d", caches, maxMsgs))
	}
	m := &DirModel{caches: caches, maxMsgs: maxMsgs}
	// Payload messages are bounded by maxMsgs; each processor can
	// additionally have at most one request (GetS/GetM) and one Put
	// queued, since Out and WaitWB gate re-issue.
	m.slots = maxMsgs + 2*caches
	m.offN = 2 * caches
	m.offM = m.offN + 1
	m.offD = m.offM + dmsgW*m.slots
	m.width = m.offD + 8
	// Cache symmetry: the cache records are one per-cache group; message
	// records carry a +1-encoded destination (0 names the directory) and
	// a plain requester index; the directory trailer holds +1-encoded
	// owner/busy/busyOwn references and the sharers bitmask.
	m.sym = &mc.Symmetry{
		Caches: caches,
		Groups: []mc.Group{{Off: 0, Stride: 2}},
		Refs: []mc.Ref{
			{Off: m.offD + 0, Enc: mc.RefPlus1}, // owner
			{Off: m.offD + 6, Enc: mc.RefPlus1}, // busy
			{Off: m.offD + 7, Enc: mc.RefPlus1}, // busyOwn
		},
		Masks: []int{m.offD + 1}, // sharers
		Slots: []mc.SlotRegion{{
			CountOff: m.offN, Off: m.offM, W: dmsgW,
			Refs: []mc.Ref{{Off: 1, Enc: mc.RefPlus1}, {Off: 2, Enc: mc.RefPlain}},
		}},
	}
	m.pool.New = func() any {
		return &dscratch{
			cur:  m.newState(),
			next: m.newState(),
			key:  make([]byte, m.width),
		}
	}
	return m
}

func (m *DirModel) newState() dstate {
	return dstate{
		C:    make([]dcache, m.caches),
		Msgs: make([]dmsg, 0, m.slots+1),
	}
}

// Name implements mc.Model.
func (m *DirModel) Name() string { return "DirectoryCMP-flat" }

// Symmetry implements mc.Symmetric: the directory's rules treat caches
// interchangeably (requests are served from an unordered message
// multiset; invalidations fan out to a sharer set).
func (m *DirModel) Symmetry() *mc.Symmetry { return m.sym }

// encode packs s into key (len m.width), canonicalizing message order
// by direct byte comparison of the packed records.
func (m *DirModel) encode(s *dstate, key []byte) {
	for i, c := range s.C {
		key[2*i] = byte(c.St) | byte(c.Out)<<2 | flag(c.Current, 4) | flag(c.WaitWB, 5)
		key[2*i+1] = byte(int8(c.Acks))
	}
	key[m.offN] = byte(len(s.Msgs))
	for k, msg := range s.Msgs {
		off := m.offM + dmsgW*k
		key[off] = byte(msg.Kind)
		key[off+1] = byte(msg.To + 1)
		key[off+2] = byte(msg.P)
		key[off+3] = flag(msg.Cur, 0) | flag(msg.Excl, 1)
		key[off+4] = byte(int8(msg.Acks))
	}
	mc.SortSlots(key[m.offM:m.offD], len(s.Msgs), dmsgW)
	padSlots(key[m.offM:m.offD], len(s.Msgs), m.slots, dmsgW)
	d := key[m.offD:]
	d[0] = byte(s.Owner + 1)
	d[1] = byte(s.Sharers)
	d[2] = byte(s.Sharers >> 8)
	d[3] = byte(s.Sharers >> 16)
	d[4] = byte(s.Sharers >> 24)
	d[5] = flag(s.MemCur, 0) | flag(s.BusyWB, 1)
	d[6] = byte(s.Busy + 1)
	d[7] = byte(s.BusyOwn + 1)
}

// decode unpacks key into s (whose slices are pre-sized scratch).
func (m *DirModel) decode(key string, s *dstate) {
	s.C = s.C[:m.caches]
	for i := range s.C {
		b0 := key[2*i]
		s.C[i] = dcache{
			St:      int(b0 & 3),
			Out:     int(b0 >> 2 & 3),
			Current: b0&16 != 0,
			WaitWB:  b0&32 != 0,
			Acks:    int(int8(key[2*i+1])),
		}
	}
	s.Msgs = s.Msgs[:0]
	for k := 0; k < int(key[m.offN]); k++ {
		off := m.offM + dmsgW*k
		s.Msgs = append(s.Msgs, dmsg{
			Kind: int(key[off]),
			To:   int(key[off+1]) - 1,
			P:    int(key[off+2]),
			Cur:  key[off+3]&1 != 0,
			Excl: key[off+3]&2 != 0,
			Acks: int(int8(key[off+4])),
		})
	}
	d := key[m.offD:]
	s.Owner = int(d[0]) - 1
	s.Sharers = uint32(d[1]) | uint32(d[2])<<8 | uint32(d[3])<<16 | uint32(d[4])<<24
	s.MemCur = d[5]&1 != 0
	s.BusyWB = d[5]&2 != 0
	s.Busy = int(d[6]) - 1
	s.BusyOwn = int(d[7]) - 1
}

// stage copies the decoded state into the scratch successor, which the
// caller mutates and emits before the next stage call.
func (m *DirModel) stage(sc *dscratch) *dstate {
	s, n := &sc.cur, &sc.next
	n.C = n.C[:len(s.C)]
	copy(n.C, s.C)
	n.Msgs = append(n.Msgs[:0], s.Msgs...)
	n.Owner, n.Sharers, n.MemCur = s.Owner, s.Sharers, s.MemCur
	n.Busy, n.BusyOwn, n.BusyWB = s.Busy, s.BusyOwn, s.BusyWB
	return n
}

// emit packs the staged successor and hands it to the checker.
func (m *DirModel) emit(sb *mc.SuccBuf, sc *dscratch, n *dstate) {
	m.encode(n, sc.key)
	sb.Emit(sc.key)
}

// Initial implements mc.Model.
func (m *DirModel) Initial() []string {
	s := &dstate{C: make([]dcache, m.caches), Owner: -1, MemCur: true, Busy: -1, BusyOwn: -1}
	key := make([]byte, m.width)
	m.encode(s, key)
	return []string{string(key)}
}

// payloadCount counts bounded messages: requests and puts model the
// directory's input queue, which holds at most one entry per processor
// and therefore needs no separate bound.
func payloadCount(s *dstate) int {
	n := 0
	for _, m := range s.Msgs {
		if m.Kind != dGetS && m.Kind != dGetM && m.Kind != dPut {
			n++
		}
	}
	return n
}

func (m *DirModel) send(s *dstate, msg dmsg) bool {
	if msg.Kind != dGetS && msg.Kind != dGetM && msg.Kind != dPut && payloadCount(s) >= m.maxMsgs {
		return false
	}
	s.Msgs = append(s.Msgs, msg)
	return true
}

// Successors implements mc.Model.
func (m *DirModel) Successors(key string, sb *mc.SuccBuf) {
	sc := m.pool.Get().(*dscratch)
	defer m.pool.Put(sc)
	s := &sc.cur
	m.decode(key, s)

	// 1. Processors issue requests and stores, and M caches may evict.
	for p := 0; p < m.caches; p++ {
		c := s.C[p]
		if c.Out == 0 && !c.WaitWB {
			if c.St == 0 { // I: may want to read or write
				for _, kind := range []int{dGetS, dGetM} {
					n := m.stage(sc)
					if kind == dGetS {
						n.C[p].Out = 1
					} else {
						n.C[p].Out = 2
					}
					if m.send(n, dmsg{Kind: kind, To: -1, P: p}) {
						m.emit(sb, sc, n)
					}
				}
			}
			if c.St == 1 { // S: may upgrade
				n := m.stage(sc)
				n.C[p].Out = 2
				if m.send(n, dmsg{Kind: dGetM, To: -1, P: p}) {
					m.emit(sb, sc, n)
				}
			}
			if c.St == 2 { // M: store or write back
				n := m.stage(sc)
				m.store(n, p)
				m.emit(sb, sc, n)
				n2 := m.stage(sc)
				n2.C[p].WaitWB = true
				if m.send(n2, dmsg{Kind: dPut, To: -1, P: p}) {
					m.emit(sb, sc, n2)
				}
			}
		}
	}

	// 2. Message deliveries.
	for k := range s.Msgs {
		msg := s.Msgs[k]
		n := m.stage(sc)
		n.Msgs = append(n.Msgs[:k], n.Msgs[k+1:]...)
		switch msg.Kind {
		case dGetS, dGetM:
			if s.Busy != -1 || s.BusyWB {
				continue // blocking directory: the request stays queued
			}
			m.dirAccept(n, msg, sb, sc)
			continue
		case dPut:
			if s.Busy != -1 || s.BusyWB {
				continue
			}
			n.Busy = msg.P
			n.BusyWB = true
			if m.send(n, dmsg{Kind: dWbGrant, To: msg.P, P: msg.P}) {
				m.emit(sb, sc, n)
			}
			continue
		case dFwdS:
			c := n.C[msg.To]
			if c.St == 2 {
				n.C[msg.To].St = 1
				if !m.send(n, dmsg{Kind: dData, To: msg.P, P: msg.P, Cur: c.Current, Acks: 0}) {
					continue
				}
				n.MemCur = c.Current // data also written through to memory
			} else if c.St == 1 {
				// Already degraded by a raced transaction; serve from the
				// surviving copy.
				if !m.send(n, dmsg{Kind: dData, To: msg.P, P: msg.P, Cur: c.Current}) {
					continue
				}
				n.MemCur = c.Current
			} else {
				continue
			}
		case dFwdM:
			c := n.C[msg.To]
			cur := c.Current
			n.C[msg.To] = dcache{WaitWB: c.WaitWB}
			if !m.send(n, dmsg{Kind: dData, To: msg.P, P: msg.P, Cur: cur, Acks: msg.Acks, Excl: true}) {
				continue
			}
		case dInv:
			c := n.C[msg.To]
			n.C[msg.To] = dcache{Out: c.Out, Acks: c.Acks, WaitWB: c.WaitWB}
			if !m.send(n, dmsg{Kind: dAck, To: msg.P, P: msg.P}) {
				continue
			}
		case dAck:
			n.C[msg.To].Acks--
			m.maybeComplete(n, msg.To)
		case dData:
			c := &n.C[msg.To]
			c.Current = msg.Cur
			if msg.Excl {
				c.St = 2
				c.Acks += msg.Acks
			} else {
				c.St = 1
			}
			m.maybeComplete(n, msg.To)
		case dUnblock:
			// Directory transaction closes; the requester reported its
			// resulting state via Excl.
			if msg.Excl {
				n.Owner = msg.P
				n.Sharers = 0
			} else {
				n.Sharers |= 1 << uint(msg.P)
				if n.BusyOwn >= 0 {
					// A forward degraded the old owner to a sharer and
					// wrote the data through to memory.
					n.Sharers |= 1 << uint(n.BusyOwn)
					n.Owner = -1
				}
			}
			n.Busy = -1
			n.BusyOwn = -1
		case dWbGrant:
			c := n.C[msg.To]
			if c.St == 2 {
				if !m.send(n, dmsg{Kind: dWbData, To: -1, P: msg.P, Cur: c.Current}) {
					continue
				}
				n.C[msg.To] = dcache{}
			} else {
				// Copy consumed by a racing forward: cancel.
				if !m.send(n, dmsg{Kind: dWbData, To: -1, P: msg.P, Cur: false, Excl: true /*cancel*/}) {
					continue
				}
				n.C[msg.To].WaitWB = false
			}
		case dWbData:
			if !msg.Excl {
				// Data written back: the evictor gives up its copy.
				n.MemCur = msg.Cur
				if n.Owner == msg.P {
					n.Owner = -1
				}
				n.Sharers &^= 1 << uint(msg.P)
				n.C[msg.P].WaitWB = false
			}
			// A cancelled writeback leaves the directory untouched: the
			// copy either survives as a sharer (degraded by a racing
			// forward) or was consumed by a transaction that already
			// updated the directory at its unblock.
			n.Busy = -1
			n.BusyWB = false
		}
		m.emit(sb, sc, n)
	}
}

// store performs processor p's write: its copy becomes the single
// current one; every other copy and the memory image go stale. A racing
// readable copy then trips the serial-view check.
func (m *DirModel) store(n *dstate, p int) {
	for q := range n.C {
		n.C[q].Current = q == p
	}
	n.MemCur = false
}

// dirAccept starts a directory transaction for a GetS/GetM.
func (m *DirModel) dirAccept(n *dstate, msg dmsg, sb *mc.SuccBuf, sc *dscratch) {
	p := msg.P
	n.Busy = p
	n.BusyOwn = n.Owner
	if msg.Kind == dGetS {
		if n.Owner == -1 {
			if !m.send(n, dmsg{Kind: dData, To: p, P: p, Cur: n.MemCur}) {
				return
			}
		} else {
			if !m.send(n, dmsg{Kind: dFwdS, To: n.Owner, P: p}) {
				return
			}
		}
		m.emit(sb, sc, n)
		return
	}
	// GetM: invalidate sharers (acks to the requester) and supply data.
	shr := n.Sharers &^ (1 << uint(p))
	acks := bits.OnesCount32(shr)
	if payloadCount(n)+acks+1 > m.maxMsgs {
		return // bounded-network throttling; the request stays queued
	}
	for q := 0; q < m.caches; q++ {
		if shr&(1<<uint(q)) != 0 {
			n.Msgs = append(n.Msgs, dmsg{Kind: dInv, To: q, P: p})
		}
	}
	n.C[p].Acks += acks
	switch {
	case n.Owner == -1:
		if !m.send(n, dmsg{Kind: dData, To: p, P: p, Cur: n.MemCur, Excl: true}) {
			return
		}
	case n.Owner == p:
		if !m.send(n, dmsg{Kind: dData, To: p, P: p, Cur: n.C[p].Current, Excl: true}) {
			return
		}
	default:
		if !m.send(n, dmsg{Kind: dFwdM, To: n.Owner, P: p}) {
			return
		}
	}
	m.emit(sb, sc, n)
}

// maybeComplete finishes a requester's transaction when data and all
// acks have arrived.
func (m *DirModel) maybeComplete(n *dstate, p int) {
	c := &n.C[p]
	if c.Out == 0 || c.Acks > 0 {
		return
	}
	switch {
	case c.Out == 1 && c.St == 1:
		c.Out = 0
		m.send(n, dmsg{Kind: dUnblock, To: -1, P: p, Excl: false})
	case c.Out == 2 && c.St == 2:
		c.Out = 0
		m.store(n, p) // the store happens on completion
		m.send(n, dmsg{Kind: dUnblock, To: -1, P: p, Excl: true})
	}
}

// Check implements mc.Model. It reads the packed cache records
// directly — no decode.
func (m *DirModel) Check(key string) error {
	writers := 0
	for i := 0; i < m.caches; i++ {
		b0 := key[2*i]
		st, current := int(b0&3), b0&16 != 0
		if st == 2 {
			writers++
			if !current {
				return fmt.Errorf("cache %d modifiable with stale data", i)
			}
		}
		if st == 1 && !current {
			return fmt.Errorf("cache %d readable with stale data (serial view violated)", i)
		}
	}
	if writers > 1 {
		return fmt.Errorf("coherence invariant violated: %d writers", writers)
	}
	return nil
}

// Quiescent implements mc.Model.
func (m *DirModel) Quiescent(key string) bool {
	return key[m.offN] == 0 && !m.Pending(key) && key[m.offD+6] == 0 // busy == -1
}

// Pending implements mc.Model.
func (m *DirModel) Pending(key string) bool {
	for i := 0; i < m.caches; i++ {
		if key[2*i]&(3<<2|1<<5) != 0 { // out != 0 or waitWB
			return true
		}
	}
	return false
}

// Satisfying implements mc.Model.
func (m *DirModel) Satisfying(key string) bool { return !m.Pending(key) }
