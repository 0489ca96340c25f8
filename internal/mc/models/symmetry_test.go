package models

import (
	"bytes"
	"testing"

	"tokencmp/internal/mc"
)

// This file property-tests the symmetry descriptors against
// struct-level cache renaming: for every model, a reachable corpus is
// permuted by renaming cache IDs in the decoded state (the ground
// truth the descriptors must reproduce byte-wise), and canonicalization
// must send every orbit member to the same representative with the
// same orbit size. The descriptors and the canonicalizer are
// independent implementations of the same group action, so agreement
// here pins both.

// permuteTokenState renames cache i to p[i] (the memory holder is a
// fixed point).
func permuteTokenState(m *TokenModel, s *tstate, p []int) *tstate {
	c := m.cfg.Caches
	out := m.newState()
	out.Holders = out.Holders[:c+1]
	for i := 0; i < c; i++ {
		out.Holders[p[i]] = s.Holders[i]
	}
	out.Holders[c] = s.Holders[c]
	for _, msg := range s.Msgs {
		if msg.Dst < c {
			msg.Dst = p[msg.Dst]
		}
		out.Msgs = append(out.Msgs, msg)
	}
	out.Reqs = out.Reqs[:c]
	for i := 0; i < c; i++ {
		out.Reqs[p[i]] = s.Reqs[i]
	}
	for _, q := range s.ArbQ {
		out.ArbQ = append(out.ArbQ, p[q])
	}
	return &out
}

// permuteDirState renames cache i to p[i] (-1 references and the
// directory are fixed points).
func permuteDirState(m *DirModel, s *dstate, p []int) *dstate {
	ref := func(v int) int {
		if v >= 0 {
			return p[v]
		}
		return v
	}
	out := m.newState()
	out.C = out.C[:m.caches]
	for i := 0; i < m.caches; i++ {
		out.C[p[i]] = s.C[i]
	}
	for _, msg := range s.Msgs {
		msg.To = ref(msg.To)
		msg.P = p[msg.P]
		out.Msgs = append(out.Msgs, msg)
	}
	out.Owner = ref(s.Owner)
	for q := 0; q < m.caches; q++ {
		if s.Sharers&(1<<uint(q)) != 0 {
			out.Sharers |= 1 << uint(p[q])
		}
	}
	out.MemCur = s.MemCur
	out.Busy = ref(s.Busy)
	out.BusyOwn = ref(s.BusyOwn)
	out.BusyWB = s.BusyWB
	return &out
}

// permuteHammerState renames cache i to p[i] (-1 references and the
// home are fixed points).
func permuteHammerState(m *HammerModel, s *hstate, p []int) *hstate {
	ref := func(v int) int {
		if v >= 0 {
			return p[v]
		}
		return v
	}
	out := m.newState()
	out.C = out.C[:m.caches]
	for i := 0; i < m.caches; i++ {
		out.C[p[i]] = s.C[i]
	}
	for _, msg := range s.Msgs {
		msg.To = ref(msg.To)
		msg.P = p[msg.P]
		out.Msgs = append(out.Msgs, msg)
	}
	out.MemCur = s.MemCur
	out.Busy = ref(s.Busy)
	out.BusyWB = ref(s.BusyWB)
	return &out
}

// checkCanonProperties asserts, over a corpus of packed keys and every
// permutation of the cache IDs, that canonicalization is idempotent
// and permutation-invariant with permutation-invariant orbit sizes.
// permuted must return the packed encoding of the p-renamed state.
func checkCanonProperties(t *testing.T, sym *mc.Symmetry, corpus []string,
	permuted func(s string, p []int) []byte) {
	t.Helper()
	width := len(corpus[0])
	canon := sym.NewCanonicalizer(width)
	if canon == nil {
		t.Fatal("NewCanonicalizer returned nil for an in-range config")
	}
	base := make([]byte, width)
	for _, s := range corpus {
		copy(base, s)
		orbit := canon.Canonicalize(base)
		if orbit < 1 {
			t.Fatalf("orbit size %d < 1 for %x", orbit, s)
		}
		again := append([]byte(nil), base...)
		if o2 := canon.Canonicalize(again); !bytes.Equal(again, base) || o2 != orbit {
			t.Fatalf("canonicalization not idempotent:\n key: %x\n 1st: %x (orbit %d)\n 2nd: %x (orbit %d)",
				s, base, orbit, again, o2)
		}
		seen := 0
		for _, p := range permutations(sym.Caches) {
			pk := permuted(s, p)
			if o := canon.Canonicalize(pk); !bytes.Equal(pk, base) || o != orbit {
				t.Fatalf("canonicalization not permutation-invariant under %v:\n     key: %x\n    want: %x (orbit %d)\n     got: %x (orbit %d)",
					p, s, base, orbit, pk, o)
			}
			seen++
		}
		if seen != factorialT(sym.Caches) {
			t.Fatalf("checked %d permutations, want %d", seen, factorialT(sym.Caches))
		}
	}
}

func factorialT(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

// sample thins a corpus so the full-permutation product stays fast.
func sample(corpus []string, stride int) []string {
	var out []string
	for i := 0; i < len(corpus); i += stride {
		out = append(out, corpus[i])
	}
	return out
}

// TestTokenCanonPermutationInvariant covers the arbiter and
// safety-only token models: canon(pack(π(s))) == canon(pack(s)) for
// every reachable s in the corpus and every cache permutation π.
func TestTokenCanonPermutationInvariant(t *testing.T) {
	for _, act := range []Activation{SafetyOnly, ArbiterAct} {
		m := NewTokenModel(DefaultTokenConfig(act))
		corpus := sample(explore(t, m, 3000), 7)
		st := m.newState()
		checkCanonProperties(t, m.Symmetry(), corpus, func(s string, p []int) []byte {
			m.decode(s, &st)
			key := make([]byte, m.width)
			m.encode(permuteTokenState(m, &st, p), key)
			return key
		})
	}
}

// TestDirCanonPermutationInvariant is the directory-model property.
func TestDirCanonPermutationInvariant(t *testing.T) {
	m := NewDirModel(3, 3)
	corpus := sample(explore(t, m, 3000), 7)
	st := m.newState()
	checkCanonProperties(t, m.Symmetry(), corpus, func(s string, p []int) []byte {
		m.decode(s, &st)
		key := make([]byte, m.width)
		m.encode(permuteDirState(m, &st, p), key)
		return key
	})
}

// TestHammerCanonPermutationInvariant is the hammer-model property, at
// three caches so non-trivial stabilizers arise.
func TestHammerCanonPermutationInvariant(t *testing.T) {
	m := NewHammerModel(3, 5)
	corpus := sample(explore(t, m, 2000), 7)
	st := m.newState()
	checkCanonProperties(t, m.Symmetry(), corpus, func(s string, p []int) []byte {
		m.decode(s, &st)
		key := make([]byte, m.width)
		m.encode(permuteHammerState(m, &st, p), key)
		return key
	})
}

// TestDistributedModelOptsOut pins the soundness exclusion: the
// distributed-activation model arbitrates persistent requests by
// lowest cache index, so its transition relation is not closed under
// permutation and it must not declare a symmetry.
func TestDistributedModelOptsOut(t *testing.T) {
	m := NewTokenModel(DefaultTokenConfig(DistributedAct))
	if m.Symmetry() != nil {
		t.Fatal("distributed model declared a symmetry; its fixed-priority activation is not permutation-invariant")
	}
	for _, act := range []Activation{SafetyOnly, ArbiterAct} {
		if NewTokenModel(DefaultTokenConfig(act)).Symmetry() == nil {
			t.Fatalf("activation %v should declare a symmetry", act)
		}
	}
}

// TestOrbitSizesSumToFullSpace asserts, on a small full reachable set,
// that the orbit sizes reported by the canonicalizer partition the
// space: summing the orbit size over distinct representatives of every
// reachable state must count every reachable state exactly once.
func TestOrbitSizesSumToFullSpace(t *testing.T) {
	cfg := DefaultTokenConfig(SafetyOnly)
	cfg.T = 2
	m := NewTokenModel(cfg)
	corpus := explore(t, m, 1<<20) // the full reachable set at this scale
	canon := m.Symmetry().NewCanonicalizer(m.width)
	reps := map[string]bool{}
	key := make([]byte, m.width)
	for _, s := range corpus {
		copy(key, s)
		canon.Canonicalize(key)
		reps[string(key)] = true
	}
	total := 0
	for rep := range reps {
		copy(key, rep)
		total += canon.Canonicalize(key)
	}
	if total != len(corpus) {
		t.Fatalf("orbit sizes sum to %d, want the full reachable count %d (reps=%d)",
			total, len(corpus), len(reps))
	}
}

// TestCanonicalizeCyclicTie pins the canonicalizer on a state whose
// tied caches are not pairwise interchangeable: three idle hammer
// caches with identical records, each probed on behalf of the next
// (0←1, 1←2, 2←0). Every cache has the same records and the same
// reference signature, so only trying the arrangements finds the
// representative; the stabilizer is the two rotations plus the
// identity, not all six permutations, so the orbit has two keys.
func TestCanonicalizeCyclicTie(t *testing.T) {
	m := NewHammerModel(3, 5)
	s := m.newState()
	s.Busy, s.BusyWB = -1, -1
	for q := 0; q < 3; q++ {
		s.Msgs = append(s.Msgs, hmsg{Kind: hmProbeS, To: q, P: (q + 1) % 3})
	}
	key := make([]byte, m.width)
	m.encode(&s, key)
	canon := m.Symmetry().NewCanonicalizer(m.width)
	rep := bytes.Clone(key)
	orbit := canon.Canonicalize(rep)
	members := map[string]bool{}
	for _, p := range permutations(3) {
		pk := make([]byte, m.width)
		m.encode(permuteHammerState(m, &s, p), pk)
		members[string(pk)] = true
		if o := canon.Canonicalize(pk); !bytes.Equal(pk, rep) || o != orbit {
			t.Fatalf("not invariant under %v: got %x (orbit %d), want %x (orbit %d)", p, pk, o, rep, orbit)
		}
	}
	if !members[string(rep)] {
		t.Fatalf("representative %x is not in the orbit", rep)
	}
	if orbit != 2 || len(members) != 2 {
		t.Fatalf("orbit size %d, distinct renamings %d; want 2 and 2", orbit, len(members))
	}
}
