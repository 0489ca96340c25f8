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

// System is a complete TokenCMP machine: caches, memory controllers, and
// the two-level interconnect, for one Table 1 variant.
type System struct {
	Cfg Config
	hier.Grid[*L1Ctrl, *L2Ctrl, *MemCtrl]

	// T is the number of tokens per block, token.TokenCountFor(#caches).
	T int

	ctr *ctrs

	allEndpoints []topo.NodeID
	l1sInCMP     [][]topo.NodeID // [cmp]: the chip's L1s, in Geometry.L1sInCMP order
}

// NewSystem wires a TokenCMP machine on the given engine and network
// configuration.
func NewSystem(eng *sim.Engine, h hier.Config, cfg Config, netCfg network.Config) *System {
	g := h.Geom
	s := &System{
		Cfg:          cfg,
		T:            token.TokenCountFor(len(g.AllCaches())),
		allEndpoints: g.AllNodes(),
	}
	s.l1sInCMP = make([][]topo.NodeID, g.CMPs)
	for c := range s.l1sInCMP {
		s.l1sInCMP[c] = g.L1sInCMP(c)
	}
	s.Init(eng, h, netCfg, kinds)
	s.ctr = newCtrs(s.Ctrs)
	s.Wire(hier.MemLatency, s.newL2, s.newL1, s.newMem)
	return s
}

// eachCacheState calls fn for every block state held in every cache
// controller.
func (s *System) eachCacheState(fn func(id topo.NodeID, b mem.Block, st *token.State)) {
	for c := range s.L1Ds {
		for p := range s.L1Ds[c] {
			id := s.L1Ds[c][p].id
			s.L1Ds[c][p].cache.ForEach(func(b mem.Block, st *token.State) { fn(id, b, st) })
			iid := s.L1Is[c][p].id
			s.L1Is[c][p].cache.ForEach(func(b mem.Block, st *token.State) { fn(iid, b, st) })
		}
		for bk := range s.L2s[c] {
			id := s.L2s[c][bk].id
			s.L2s[c][bk].cache.ForEach(func(b mem.Block, st *token.State) { fn(id, b, st) })
		}
	}
}

// TokenAudit verifies the substrate's safety invariant for every
// materialized block: exactly T tokens and exactly one owner token exist
// across all caches, memory, and in-flight messages, and at most one
// cache holds all T tokens.
func (s *System) TokenAudit() error {
	type tally struct {
		tokens, owners int
		writers        int
	}
	var tallies blocktab.Table[tally]
	get := tallies.At

	s.eachCacheState(func(_ topo.NodeID, b mem.Block, st *token.State) {
		t := get(b)
		t.tokens += st.Tokens
		if st.Owner {
			t.owners++
		}
		if st.Tokens == s.T {
			t.writers++
		}
	})
	for _, m := range s.Mems {
		for _, b := range m.Touched() {
			st, _ := m.StateOf(b)
			t := get(b)
			t.tokens += st.Tokens
			if st.Owner {
				t.owners++
			}
		}
	}
	s.Net.EachInFlight(func(b mem.Block, tokens, owners int) {
		t := get(b)
		t.tokens += tokens
		t.owners += owners
	})

	// Report the lowest violating block, so a failing audit names the
	// same block on every run.
	var err error
	tallies.Each(func(b mem.Block, t *tally) {
		switch {
		case err != nil:
		case t.tokens != s.T:
			err = fmt.Errorf("token conservation violated for %v: have %d tokens, want %d", b, t.tokens, s.T)
		case t.owners != 1:
			err = fmt.Errorf("owner-token invariant violated for %v: %d owners", b, t.owners)
		case t.writers > 1:
			err = fmt.Errorf("coherence invariant violated for %v: %d concurrent writers", b, t.writers)
		}
	})
	return err
}
