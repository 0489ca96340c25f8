// Package models contains the downscaled protocol models checked by
// internal/mc, mirroring the paper's Section 5 TLA+ models: three
// versions of the token-coherence correctness substrate (arbiter
// activation, distributed activation, and safety-only), a simplified
// flat directory protocol, and the HammerCMP broadcast race window.
//
// The token models drive the performance-policy interface
// nondeterministically — any holder may spill any of its tokens toward
// any cache at any time — so the verification covers every possible
// performance policy, hierarchical ones included. Data values use the
// data-independence abstraction (Wolper): each copy carries a single
// "current" bit; a store makes the writer's copy current, and the serial
// view of memory holds iff every readable copy is current.
//
// States are fixed-width packed binary keys (see pack.go); each model
// documents its layout next to its encode method.
package models

import (
	"fmt"
	"sync"

	"tokencmp/internal/mc"
)

// Activation selects the starvation-avoidance mechanism modeled.
type Activation int

// Activation mechanisms (SafetyOnly omits persistent requests entirely,
// like the paper's TokenCMP-safety model).
const (
	ArbiterAct Activation = iota
	DistributedAct
	SafetyOnly
)

// TokenConfig sizes the token-substrate model.
type TokenConfig struct {
	Caches   int // caches with processors (memory is an extra holder)
	T        int // tokens per block
	MaxMsgs  int // in-flight message bound
	Activate Activation

	// Loss enables interconnect message loss: any in-flight non-owner
	// message may be destroyed, and a token-recreation process returns
	// the destroyed tokens to memory. The safety invariant weakens from
	// exact conservation to conservation modulo recreation (held +
	// in-flight + lost == T); owner uniqueness, the coherence invariant,
	// and the serial view are unchanged. Transient-request loss needs no
	// extra transitions — the model has no request messages (the policy
	// nondeterminism already covers "the request never arrived") — so
	// Loss adds exactly what that cannot express: tokens vanishing from
	// the wire. See the README's fault-injection section for how this
	// differs from the simulator's ack+retransmit shim.
	Loss bool
}

// DefaultTokenConfig is a small but non-trivial configuration: three
// caches plus memory, four tokens, two in-flight messages.
func DefaultTokenConfig(a Activation) TokenConfig {
	return TokenConfig{Caches: 3, T: 4, MaxMsgs: 2, Activate: a}
}

// holder is one token-holding site (a cache or the memory).
type holder struct {
	Tokens  int
	Owner   bool
	HasData bool
	Current bool
}

// tmsg is one in-flight substrate message.
type tmsg struct {
	Tokens  int
	Owner   bool
	HasData bool
	Current bool
	Dst     int
}

// preq is one persistent-request table entry (distributed) or queue
// element (arbiter).
type preq struct {
	Valid  bool
	Write  bool
	Marked bool // distributed marking mechanism
}

// tstate is a full model state. Holders[Caches] is the memory. Lost
// counts tokens destroyed by the lossy interconnect and not yet
// recreated (always 0 unless TokenConfig.Loss).
type tstate struct {
	Holders []holder
	Msgs    []tmsg
	Reqs    []preq // per processor
	ArbQ    []int  // arbiter FIFO (processor indices); ArbQ[0] is active
	Lost    int
}

// tscratch is one worker's reusable decode/encode workspace.
type tscratch struct {
	cur, next tstate
	key       []byte
}

// TokenModel is the substrate transition system. Its methods are safe
// for concurrent use, as required by the parallel checker in
// internal/mc: all mutable state lives in pooled per-call scratch.
type TokenModel struct {
	cfg TokenConfig

	// Packed layout (fixed width, offsets precomputed per config):
	//
	//	[0, offN)        holders: Caches+1 × 2 bytes [tokens][owner|hasData<<1|current<<2]
	//	[offN]           in-flight message count
	//	[offM, offR)     MaxMsgs × 3-byte slots [tokens][owner|hasData<<1|current<<2][dst],
	//	                 byte-sorted, unused slots 0xFF
	//	[offR, offQ)     Caches × 1 byte [valid|write<<1|marked<<2]
	//	[offQ, ...)      arbiter FIFO: processor indices, 0xFF padding
	//	[offL]           lost-token count — present only when cfg.Loss,
	//	                 so loss-free layouts (and their pinned state
	//	                 counts) are byte-identical to pre-loss builds
	offN, offM, offR, offQ, offL, width int

	// sym describes the layout's cache symmetry for the checker's
	// canonicalization (nil for the distributed model; see NewTokenModel).
	sym *mc.Symmetry

	pool sync.Pool // *tscratch
}

const tmsgW = 3 // packed tmsg record width

// NewTokenModel builds a model for cfg.
func NewTokenModel(cfg TokenConfig) *TokenModel {
	if cfg.Caches < 1 || cfg.Caches > 254 || cfg.T < 1 || cfg.T > 254 || cfg.MaxMsgs < 1 || cfg.MaxMsgs > 254 {
		panic(fmt.Sprintf("models: token config out of packed-encoding range: %+v", cfg))
	}
	m := &TokenModel{cfg: cfg}
	m.offN = 2 * (cfg.Caches + 1)
	m.offM = m.offN + 1
	m.offR = m.offM + tmsgW*cfg.MaxMsgs
	m.offQ = m.offR + cfg.Caches
	m.width = m.offQ + cfg.Caches
	m.offL = -1
	if cfg.Loss {
		m.offL = m.width
		m.width++
	}
	if cfg.Activate != DistributedAct {
		// Cache symmetry: the holder and request records are per-cache
		// groups (the memory holder at index Caches stays fixed), message
		// destinations are plain cache indices (Dst == Caches names the
		// memory and is a fixed point), and the arbiter FIFO holds plain
		// cache indices in arrival order (0xFF padding is a fixed point).
		//
		// The distributed model gets no descriptor: activeReq activates
		// the LOWEST-indexed valid persistent request, so its transition
		// relation orders the caches and is not closed under permutation
		// — exactly the rule shape Ip & Dill's scalarset discipline
		// excludes. It is checked unreduced.
		arbRefs := make([]mc.Ref, cfg.Caches)
		for q := range arbRefs {
			arbRefs[q] = mc.Ref{Off: m.offQ + q, Enc: mc.RefPlain}
		}
		m.sym = &mc.Symmetry{
			Caches: cfg.Caches,
			Groups: []mc.Group{{Off: 0, Stride: 2}, {Off: m.offR, Stride: 1}},
			Refs:   arbRefs,
			Slots: []mc.SlotRegion{{
				CountOff: m.offN, Off: m.offM, W: tmsgW,
				Refs: []mc.Ref{{Off: 2, Enc: mc.RefPlain}},
			}},
		}
	}
	m.pool.New = func() any {
		return &tscratch{
			cur:  m.newState(),
			next: m.newState(),
			key:  make([]byte, m.width),
		}
	}
	return m
}

func (m *TokenModel) newState() tstate {
	return tstate{
		Holders: make([]holder, m.cfg.Caches+1),
		Msgs:    make([]tmsg, 0, m.cfg.MaxMsgs+1),
		Reqs:    make([]preq, m.cfg.Caches),
		ArbQ:    make([]int, 0, m.cfg.Caches),
	}
}

// Name implements mc.Model.
func (m *TokenModel) Name() string {
	name := "TokenCMP-safety"
	switch m.cfg.Activate {
	case ArbiterAct:
		name = "TokenCMP-arb"
	case DistributedAct:
		name = "TokenCMP-dst"
	}
	if m.cfg.Loss {
		name += "+loss"
	}
	return name
}

func (m *TokenModel) mem() int { return m.cfg.Caches }

// Symmetry implements mc.Symmetric. The arbiter and safety-only models
// are fully symmetric in their caches; the distributed model is not
// (fixed-priority activation) and returns nil, opting out of reduction.
func (m *TokenModel) Symmetry() *mc.Symmetry { return m.sym }

// encode packs s into key (len m.width), canonicalizing message order
// by direct byte comparison of the packed records.
func (m *TokenModel) encode(s *tstate, key []byte) {
	for i, h := range s.Holders {
		key[2*i] = byte(h.Tokens)
		key[2*i+1] = flag(h.Owner, 0) | flag(h.HasData, 1) | flag(h.Current, 2)
	}
	key[m.offN] = byte(len(s.Msgs))
	for k, msg := range s.Msgs {
		off := m.offM + tmsgW*k
		key[off] = byte(msg.Tokens)
		key[off+1] = flag(msg.Owner, 0) | flag(msg.HasData, 1) | flag(msg.Current, 2)
		key[off+2] = byte(msg.Dst)
	}
	mc.SortSlots(key[m.offM:m.offR], len(s.Msgs), tmsgW)
	padSlots(key[m.offM:m.offR], len(s.Msgs), m.cfg.MaxMsgs, tmsgW)
	for p, r := range s.Reqs {
		key[m.offR+p] = flag(r.Valid, 0) | flag(r.Write, 1) | flag(r.Marked, 2)
	}
	for q := 0; q < m.cfg.Caches; q++ {
		if q < len(s.ArbQ) {
			key[m.offQ+q] = byte(s.ArbQ[q])
		} else {
			key[m.offQ+q] = slotPad
		}
	}
	if m.cfg.Loss {
		key[m.offL] = byte(s.Lost)
	}
}

// decode unpacks key into s (whose slices are pre-sized scratch).
func (m *TokenModel) decode(key string, s *tstate) {
	s.Holders = s.Holders[:m.cfg.Caches+1]
	for i := range s.Holders {
		fl := key[2*i+1]
		s.Holders[i] = holder{Tokens: int(key[2*i]), Owner: fl&1 != 0, HasData: fl&2 != 0, Current: fl&4 != 0}
	}
	s.Msgs = s.Msgs[:0]
	for k := 0; k < int(key[m.offN]); k++ {
		off := m.offM + tmsgW*k
		fl := key[off+1]
		s.Msgs = append(s.Msgs, tmsg{Tokens: int(key[off]), Owner: fl&1 != 0, HasData: fl&2 != 0, Current: fl&4 != 0, Dst: int(key[off+2])})
	}
	s.Reqs = s.Reqs[:m.cfg.Caches]
	for p := range s.Reqs {
		fl := key[m.offR+p]
		s.Reqs[p] = preq{Valid: fl&1 != 0, Write: fl&2 != 0, Marked: fl&4 != 0}
	}
	s.ArbQ = s.ArbQ[:0]
	for q := 0; q < m.cfg.Caches; q++ {
		v := key[m.offQ+q]
		if v == slotPad {
			break
		}
		s.ArbQ = append(s.ArbQ, int(v))
	}
	s.Lost = 0
	if m.cfg.Loss {
		s.Lost = int(key[m.offL])
	}
}

// stage copies the decoded state into the scratch successor, which the
// caller mutates and emits before the next stage call.
func (m *TokenModel) stage(sc *tscratch) *tstate {
	s, n := &sc.cur, &sc.next
	n.Holders = n.Holders[:len(s.Holders)]
	copy(n.Holders, s.Holders)
	n.Msgs = append(n.Msgs[:0], s.Msgs...)
	n.Reqs = n.Reqs[:len(s.Reqs)]
	copy(n.Reqs, s.Reqs)
	n.ArbQ = append(n.ArbQ[:0], s.ArbQ...)
	n.Lost = s.Lost
	return n
}

// emit packs the staged successor and hands it to the checker.
func (m *TokenModel) emit(sb *mc.SuccBuf, sc *tscratch, n *tstate) {
	m.encode(n, sc.key)
	sb.Emit(sc.key)
}

// Initial implements mc.Model: all tokens at memory with current data.
func (m *TokenModel) Initial() []string {
	s := &tstate{
		Holders: make([]holder, m.cfg.Caches+1),
		Reqs:    make([]preq, m.cfg.Caches),
	}
	s.Holders[m.mem()] = holder{Tokens: m.cfg.T, Owner: true, HasData: true, Current: true}
	key := make([]byte, m.width)
	m.encode(s, key)
	return []string{string(key)}
}

// canRead reports read permission at holder i.
func canRead(h holder) bool { return h.Tokens >= 1 && h.HasData }

// canWrite reports write permission at holder i given T.
func canWrite(h holder, t int) bool { return h.Tokens == t && h.HasData }

// activeReq returns the processor whose persistent request is activated.
func (m *TokenModel) activeReq(s *tstate) (int, bool) {
	switch m.cfg.Activate {
	case DistributedAct:
		for p := range s.Reqs {
			if s.Reqs[p].Valid {
				return p, true // fixed priority: lowest index
			}
		}
	case ArbiterAct:
		if len(s.ArbQ) > 0 {
			return s.ArbQ[0], true
		}
	}
	return 0, false
}

// Successors implements mc.Model.
func (m *TokenModel) Successors(key string, sb *mc.SuccBuf) {
	sc := m.pool.Get().(*tscratch)
	defer m.pool.Put(sc)
	s := &sc.cur
	m.decode(key, s)
	T := m.cfg.T

	// 1. Performance policy: any holder may send one token or all of its
	// tokens to any other site. Owner-token messages must carry data.
	for i := range s.Holders {
		h := s.Holders[i]
		if h.Tokens == 0 || len(s.Msgs) >= m.cfg.MaxMsgs {
			continue
		}
		for j := range s.Holders {
			if j == i {
				continue
			}
			// Send everything.
			n := m.stage(sc)
			n.Holders[i] = holder{}
			n.Msgs = append(n.Msgs, tmsg{Tokens: h.Tokens, Owner: h.Owner, HasData: h.HasData, Current: h.Current, Dst: j})
			m.emit(sb, sc, n)
			// Send a single non-owner token without data.
			if h.Tokens >= 2 || (h.Tokens == 1 && !h.Owner) {
				n := m.stage(sc)
				nh := h
				nh.Tokens--
				if nh.Tokens == 0 {
					nh.HasData = false
					nh.Current = false
				}
				n.Holders[i] = nh
				n.Msgs = append(n.Msgs, tmsg{Tokens: 1, Dst: j})
				m.emit(sb, sc, n)
			}
		}
	}

	// 2. Message delivery merges payload into the destination.
	for k := range s.Msgs {
		n := m.stage(sc)
		msg := n.Msgs[k]
		n.Msgs = append(n.Msgs[:k], n.Msgs[k+1:]...)
		h := n.Holders[msg.Dst]
		h.Tokens += msg.Tokens
		if msg.Owner {
			h.Owner = true
		}
		if msg.HasData {
			h.HasData = true
			h.Current = msg.Current
		}
		n.Holders[msg.Dst] = h
		m.emit(sb, sc, n)
	}

	// 2b. Interconnect loss (Loss mode): any non-owner in-flight message
	// may be destroyed, moving its tokens to the lost count. Owner
	// messages never vanish — in the simulator they ride the
	// ack+retransmit shim, and recreating a destroyed owner token would
	// need an authoritative data copy the protocol cannot name. Losing a
	// non-owner data copy is harmless: it only removes a potential
	// sharer.
	if m.cfg.Loss {
		for k := range s.Msgs {
			if s.Msgs[k].Owner {
				continue
			}
			n := m.stage(sc)
			n.Lost += n.Msgs[k].Tokens
			n.Msgs = append(n.Msgs[:k], n.Msgs[k+1:]...)
			m.emit(sb, sc, n)
		}
		// 2c. Token recreation: the backstop process re-mints every lost
		// token at the memory (the paper's token-recreation mechanism,
		// collapsed to one atomic step). Always enabled while tokens are
		// missing, which is what keeps the lossy model deadlock- and
		// starvation-free: a persistent request stalled on destroyed
		// tokens is eventually satisfiable through memory's forwarding
		// obligation once recreation refills it.
		if s.Lost > 0 {
			n := m.stage(sc)
			n.Holders[m.mem()].Tokens += n.Lost
			n.Lost = 0
			m.emit(sb, sc, n)
		}
	}

	// 3. Processor stores: a cache with all T tokens may write, making
	// its copy the (only) current one.
	for p := 0; p < m.cfg.Caches; p++ {
		if canWrite(s.Holders[p], T) {
			n := m.stage(sc)
			n.Holders[p].Current = true
			m.emit(sb, sc, n)
		}
	}

	if m.cfg.Activate == SafetyOnly {
		return
	}

	// 4. Persistent request issue (one per processor; the distributed
	// marking mechanism gates re-issue until marked entries drain).
	for p := 0; p < m.cfg.Caches; p++ {
		if s.Reqs[p].Valid {
			continue
		}
		if m.cfg.Activate == DistributedAct {
			blockedByMark := false
			for q := range s.Reqs {
				if s.Reqs[q].Valid && s.Reqs[q].Marked {
					blockedByMark = true
				}
			}
			if blockedByMark {
				continue
			}
		}
		for _, write := range []bool{false, true} {
			n := m.stage(sc)
			n.Reqs[p] = preq{Valid: true, Write: write}
			if m.cfg.Activate == ArbiterAct {
				n.ArbQ = append(n.ArbQ, p)
			}
			m.emit(sb, sc, n)
		}
	}

	// 5. Forwarding obligation: while processor a's request is activated,
	// any other holder forwards its tokens — everything for a write;
	// all-but-one (owner with data travels) for a read.
	if a, ok := m.activeReq(s); ok {
		req := s.Reqs[a]
		for i := range s.Holders {
			if i == a || s.Holders[i].Tokens == 0 || len(s.Msgs) >= m.cfg.MaxMsgs {
				continue
			}
			h := s.Holders[i]
			n := m.stage(sc)
			isMem := i == m.mem()
			switch {
			case req.Write || isMem:
				n.Holders[i] = holder{}
				n.Msgs = append(n.Msgs, tmsg{Tokens: h.Tokens, Owner: h.Owner, HasData: h.HasData, Current: h.Current, Dst: a})
			case h.Owner:
				give := h.Tokens - 1
				if give < 1 {
					give = h.Tokens
				}
				nh := h
				nh.Tokens -= give
				nh.Owner = false
				if nh.Tokens == 0 {
					nh.HasData = false
					nh.Current = false
				}
				n.Holders[i] = nh
				n.Msgs = append(n.Msgs, tmsg{Tokens: give, Owner: true, HasData: true, Current: h.Current, Dst: a})
			case h.Tokens >= 2:
				nh := h
				nh.Tokens = 1
				n.Holders[i] = nh
				n.Msgs = append(n.Msgs, tmsg{Tokens: h.Tokens - 1, Dst: a})
			default:
				continue
			}
			m.emit(sb, sc, n)
		}
	}

	// 6. Persistent request completion: the initiator deactivates once it
	// has sufficient tokens. Under distributed activation it marks the
	// remaining entries (the wave mechanism).
	for p := 0; p < m.cfg.Caches; p++ {
		if !s.Reqs[p].Valid {
			continue
		}
		h := s.Holders[p]
		satisfied := (s.Reqs[p].Write && canWrite(h, T)) || (!s.Reqs[p].Write && canRead(h))
		if !satisfied {
			continue
		}
		n := m.stage(sc)
		if n.Reqs[p].Write {
			n.Holders[p].Current = true // the store happens
		}
		n.Reqs[p] = preq{}
		if m.cfg.Activate == DistributedAct {
			for q := range n.Reqs {
				if n.Reqs[q].Valid {
					n.Reqs[q].Marked = true
				}
			}
		} else {
			// Arbiter: remove from the queue (active or not).
			for qi, qp := range n.ArbQ {
				if qp == p {
					n.ArbQ = append(n.ArbQ[:qi], n.ArbQ[qi+1:]...)
					break
				}
			}
		}
		m.emit(sb, sc, n)
	}
}

// Check implements mc.Model: token conservation, one owner, the
// coherence invariant, and the serial view of memory. It reads the
// packed key directly — no decode.
func (m *TokenModel) Check(key string) error {
	tokens, owners, writers := 0, 0, 0
	for i := 0; i <= m.cfg.Caches; i++ {
		tk, fl := int(key[2*i]), key[2*i+1]
		hasData := fl&2 != 0
		tokens += tk
		if fl&1 != 0 { // owner
			owners++
			if !hasData {
				return fmt.Errorf("holder %d has the owner token without data", i)
			}
		}
		if tk == m.cfg.T {
			writers++
		}
		if tk >= 1 && hasData && fl&4 == 0 { // readable but not current
			return fmt.Errorf("holder %d readable with stale data (serial view violated)", i)
		}
	}
	for k := 0; k < int(key[m.offN]); k++ {
		off := m.offM + tmsgW*k
		tokens += int(key[off])
		if key[off+1]&1 != 0 { // owner token in flight
			owners++
			if key[off+1]&2 == 0 {
				return fmt.Errorf("in-flight owner token without data")
			}
		}
	}
	if m.cfg.Loss {
		// Conservation modulo recreation: destroyed tokens are accounted
		// until the recreation process re-mints them at memory.
		tokens += int(key[m.offL])
	}
	if tokens != m.cfg.T {
		return fmt.Errorf("token conservation violated: %d != %d", tokens, m.cfg.T)
	}
	if owners != 1 {
		return fmt.Errorf("owner-token invariant violated: %d owners", owners)
	}
	if writers > 1 {
		return fmt.Errorf("coherence invariant violated: %d writers", writers)
	}
	return nil
}

// Quiescent implements mc.Model: any state may idle (the policy is never
// obligated to act), so deadlock means literally no successors, which the
// delivery transitions prevent; treat all states as quiescent-capable
// only when no messages and no requests are outstanding.
func (m *TokenModel) Quiescent(key string) bool {
	return key[m.offN] == 0 && !m.Pending(key)
}

// Pending implements mc.Model.
func (m *TokenModel) Pending(key string) bool {
	for p := 0; p < m.cfg.Caches; p++ {
		if key[m.offR+p]&1 != 0 {
			return true
		}
	}
	return false
}
