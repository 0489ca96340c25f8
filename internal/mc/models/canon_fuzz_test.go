package models

import (
	"bytes"
	"fmt"
	"testing"

	"tokencmp/internal/mc"
)

// This file fuzzes the canonicalizer against brute force: a reachable
// state of a symmetric model, renamed by any cache permutation, must
// canonicalize to the same key with the same orbit size; that key must
// be a member of the state's orbit; and the orbit size must equal the
// number of distinct keys the Caches! renamings produce. The orbit
// size is also cross-checked against lexMinCanon, the earlier
// lexicographically-minimal canonicalizer kept here as a reference.

// fuzzModel is one symmetric model configuration under fuzz, with a
// reachable corpus and the struct-level renaming of its states.
type fuzzModel struct {
	sym     *mc.Symmetry
	corpus  []string
	permute func(s string, p []int) []byte // pack(p(decode(s)))
}

// fuzzKinds names the symmetric model families the fuzzer picks from.
var fuzzKinds = []string{"safety", "arb", "directory", "hammer"}

// fuzzModels caches the corpora: exploring is the expensive part of an
// input, and each fuzz worker process builds its own on first use.
var fuzzModels = map[string]*fuzzModel{}

func newFuzzModel(t *testing.T, kind string, caches int) *fuzzModel {
	id := fmt.Sprintf("%s/%d", kind, caches)
	if fm := fuzzModels[id]; fm != nil {
		return fm
	}
	const corpus = 1500
	var fm *fuzzModel
	switch kind {
	case "safety", "arb":
		cfg := DefaultTokenConfig(SafetyOnly)
		if kind == "arb" {
			cfg = DefaultTokenConfig(ArbiterAct)
		}
		cfg.Caches = caches
		m := NewTokenModel(cfg)
		st := m.newState()
		fm = &fuzzModel{sym: m.Symmetry(), corpus: explore(t, m, corpus), permute: func(s string, p []int) []byte {
			m.decode(s, &st)
			key := make([]byte, m.width)
			m.encode(permuteTokenState(m, &st, p), key)
			return key
		}}
	case "directory":
		m := NewDirModel(caches, 3)
		st := m.newState()
		fm = &fuzzModel{sym: m.Symmetry(), corpus: explore(t, m, corpus), permute: func(s string, p []int) []byte {
			m.decode(s, &st)
			key := make([]byte, m.width)
			m.encode(permuteDirState(m, &st, p), key)
			return key
		}}
	case "hammer":
		m := NewHammerModel(caches, 5)
		st := m.newState()
		fm = &fuzzModel{sym: m.Symmetry(), corpus: explore(t, m, corpus), permute: func(s string, p []int) []byte {
			m.decode(s, &st)
			key := make([]byte, m.width)
			m.encode(permuteHammerState(m, &st, p), key)
			return key
		}}
	}
	fuzzModels[id] = fm
	return fm
}

// nthPermutation decodes k (mod n!) as a Lehmer code.
func nthPermutation(n, k int) []int {
	k %= factorialT(n)
	free := make([]int, n)
	for i := range free {
		free[i] = i
	}
	p := make([]int, 0, n)
	for i := n; i > 0; i-- {
		f := factorialT(i - 1)
		j := k / f
		k %= f
		p = append(p, free[j])
		free = append(free[:j], free[j+1:]...)
	}
	return p
}

// FuzzCanonicalize picks a model family (kind), a cache count (2 to 4),
// a reachable state and a cache permutation.
func FuzzCanonicalize(f *testing.F) {
	for kind := range fuzzKinds {
		f.Add(uint8(kind), uint8(1), uint16(0), uint16(5))
		f.Add(uint8(kind), uint8(2), uint16(777), uint16(13))
	}
	f.Fuzz(func(t *testing.T, kind, caches uint8, state, perm uint16) {
		n := 2 + int(caches)%3
		fm := newFuzzModel(t, fuzzKinds[int(kind)%len(fuzzKinds)], n)
		s := fm.corpus[int(state)%len(fm.corpus)]
		p := nthPermutation(n, int(perm))
		canon := fm.sym.NewCanonicalizer(len(s))

		rep := []byte(s)
		orbit := canon.Canonicalize(rep)

		again := bytes.Clone(rep)
		if o := canon.Canonicalize(again); !bytes.Equal(again, rep) || o != orbit {
			t.Fatalf("not idempotent:\n key: %x\n 1st: %x (orbit %d)\n 2nd: %x (orbit %d)", s, rep, orbit, again, o)
		}
		renamed := fm.permute(s, p)
		if o := canon.Canonicalize(renamed); !bytes.Equal(renamed, rep) || o != orbit {
			t.Fatalf("not invariant under %v:\n key: %x\nwant: %x (orbit %d)\n got: %x (orbit %d)", p, s, rep, orbit, renamed, o)
		}

		members := map[string]bool{}
		for _, q := range permutations(n) {
			members[string(fm.permute(s, q))] = true
		}
		if !members[string(rep)] {
			t.Fatalf("representative %x is not in the orbit of %x", rep, s)
		}
		if orbit != len(members) {
			t.Fatalf("orbit size %d, brute force counts %d distinct renamings of %x", orbit, len(members), s)
		}
		ref := newLexMinCanon(fm.sym, len(s))
		lexS, lexRep := []byte(s), bytes.Clone(rep)
		if o := ref.Canonicalize(lexS); o != orbit {
			t.Fatalf("orbit size %d, lex-min reference %d for %x", orbit, o, s)
		}
		ref.Canonicalize(lexRep)
		if !bytes.Equal(lexS, lexRep) {
			t.Fatalf("representative %x and key %x have different lex-min forms %x, %x", rep, s, lexRep, lexS)
		}
	})
}

// lexMinCanon is the reference canonicalizer: the lexicographically
// minimal key over all cache permutations, found by sorting the caches
// by their Groups[0] record (the first permutation-sensitive bytes of
// every model's key) and trying every arrangement of the ties, with a
// sorted-record shortcut when no reference byte is live. Its orbit
// count is the number of arrangements reaching the minimum.
type lexMinCanon struct {
	sym        *mc.Symmetry
	fact       int
	order      []uint8
	pos        []uint8
	ends       []int
	cand, best []byte
	src        []byte
	hits       int
}

func newLexMinCanon(s *mc.Symmetry, width int) *lexMinCanon {
	return &lexMinCanon{
		sym:   s,
		fact:  factorialT(s.Caches),
		order: make([]uint8, s.Caches),
		pos:   make([]uint8, s.Caches),
		cand:  make([]byte, width),
		best:  make([]byte, width),
	}
}

func (c *lexMinCanon) Canonicalize(key []byte) int {
	s := c.sym
	n := s.Caches
	ord := c.order[:n]
	for i := range ord {
		ord[i] = uint8(i)
	}
	if !c.liveRefs(key) {
		for i := 1; i < n; i++ {
			for j := i; j > 0 && c.cmpRecords(key, ord[j-1], ord[j], len(s.Groups)) > 0; j-- {
				ord[j-1], ord[j] = ord[j], ord[j-1]
			}
		}
		stab, run := 1, 1
		for j := 1; j <= n; j++ {
			if j < n && c.cmpRecords(key, ord[j-1], ord[j], len(s.Groups)) == 0 {
				run++
			} else {
				stab *= factorialT(run)
				run = 1
			}
		}
		c.apply(key, c.cand, c.invert(ord))
		copy(key, c.cand)
		return c.fact / stab
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && c.cmpRecords(key, ord[j-1], ord[j], 1) > 0; j-- {
			ord[j-1], ord[j] = ord[j], ord[j-1]
		}
	}
	c.ends = c.ends[:0]
	for j := 1; j <= n; j++ {
		if j == n || c.cmpRecords(key, ord[j-1], ord[j], 1) != 0 {
			c.ends = append(c.ends, j)
		}
	}
	c.src = key
	c.hits = 0
	c.enumerate(0)
	copy(key, c.best)
	return c.fact / c.hits
}

func (c *lexMinCanon) cmpRecords(key []byte, a, b uint8, ngroups int) int {
	for _, g := range c.sym.Groups[:ngroups] {
		ra := key[g.Off+int(a)*g.Stride : g.Off+(int(a)+1)*g.Stride]
		rb := key[g.Off+int(b)*g.Stride : g.Off+(int(b)+1)*g.Stride]
		if d := bytes.Compare(ra, rb); d != 0 {
			return d
		}
	}
	return 0
}

func (c *lexMinCanon) invert(ord []uint8) []uint8 {
	for j, cache := range ord {
		c.pos[cache] = uint8(j)
	}
	return c.pos
}

func (c *lexMinCanon) enumerate(cluster int) {
	if cluster == len(c.ends) {
		c.try()
		return
	}
	lo := 0
	if cluster > 0 {
		lo = c.ends[cluster-1]
	}
	c.permuteRange(lo, c.ends[cluster], cluster)
}

func (c *lexMinCanon) permuteRange(lo, hi, cluster int) {
	if lo >= hi {
		c.enumerate(cluster + 1)
		return
	}
	for i := lo; i < hi; i++ {
		c.order[lo], c.order[i] = c.order[i], c.order[lo]
		c.permuteRange(lo+1, hi, cluster)
		c.order[lo], c.order[i] = c.order[i], c.order[lo]
	}
}

func (c *lexMinCanon) try() {
	c.apply(c.src, c.cand, c.invert(c.order))
	if c.hits == 0 {
		copy(c.best, c.cand)
		c.hits = 1
		return
	}
	switch bytes.Compare(c.cand, c.best) {
	case -1:
		copy(c.best, c.cand)
		c.hits = 1
	case 0:
		c.hits++
	}
}

func lexRefLive(b byte, enc mc.RefEnc, n int) bool {
	switch enc {
	case mc.RefPlain:
		return int(b) < n
	case mc.RefPlus1:
		return b >= 1 && int(b) <= n
	}
	return false
}

func lexRemapRef(b byte, enc mc.RefEnc, pos []uint8, n int) byte {
	switch enc {
	case mc.RefPlain:
		if int(b) < n {
			return pos[b]
		}
	case mc.RefPlus1:
		if b >= 1 && int(b) <= n {
			return pos[b-1] + 1
		}
	}
	return b
}

func (c *lexMinCanon) liveRefs(key []byte) bool {
	s := c.sym
	n := s.Caches
	for _, r := range s.Refs {
		if lexRefLive(key[r.Off], r.Enc, n) {
			return true
		}
	}
	for _, off := range s.Masks {
		v := uint32(key[off]) | uint32(key[off+1])<<8 | uint32(key[off+2])<<16 | uint32(key[off+3])<<24
		if v&(1<<uint(n)-1) != 0 {
			return true
		}
	}
	for _, sl := range s.Slots {
		for k := 0; k < int(key[sl.CountOff]); k++ {
			for _, r := range sl.Refs {
				if lexRefLive(key[sl.Off+k*sl.W+r.Off], r.Enc, n) {
					return true
				}
			}
		}
	}
	return false
}

func (c *lexMinCanon) apply(src, dst []byte, pos []uint8) {
	s := c.sym
	n := s.Caches
	copy(dst, src)
	for _, g := range s.Groups {
		for i := 0; i < n; i++ {
			copy(dst[g.Off+int(pos[i])*g.Stride:g.Off+(int(pos[i])+1)*g.Stride], src[g.Off+i*g.Stride:])
		}
	}
	for _, r := range s.Refs {
		dst[r.Off] = lexRemapRef(src[r.Off], r.Enc, pos, n)
	}
	for _, off := range s.Masks {
		v := uint32(src[off]) | uint32(src[off+1])<<8 | uint32(src[off+2])<<16 | uint32(src[off+3])<<24
		var w uint32
		for i := 0; i < n; i++ {
			if v&(1<<uint(i)) != 0 {
				w |= 1 << uint(pos[i])
			}
		}
		v = v&^(1<<uint(n)-1) | w
		dst[off], dst[off+1], dst[off+2], dst[off+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	for _, sl := range s.Slots {
		cnt := int(src[sl.CountOff])
		for k := 0; k < cnt; k++ {
			for _, r := range sl.Refs {
				dst[sl.Off+k*sl.W+r.Off] = lexRemapRef(dst[sl.Off+k*sl.W+r.Off], r.Enc, pos, n)
			}
		}
		mc.SortSlots(dst[sl.Off:], cnt, sl.W)
	}
}
