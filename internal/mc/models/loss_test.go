package models

import (
	"strings"
	"testing"

	"tokencmp/internal/mc"
)

// Loss-mode verification: the paper's Section 5 models gain an
// interconnect-loss transition (any non-owner in-flight message may
// vanish, its tokens moving to a Lost pool the memory controller later
// recreates), and the conservation invariant weakens to "conservation
// modulo recreation": live tokens + Lost == T. These tests pin that
// the weakened models still verify, that loss genuinely enlarges the
// reachable space, and that the extra Lost byte round-trips without
// disturbing the loss-free layout.

func lossCfg(act Activation) TokenConfig {
	cfg := DefaultTokenConfig(act)
	cfg.Loss = true
	return cfg
}

// TestTokenLossVerifiesAllActivations is the headline: with message
// loss enabled, all three activation variants still pass every safety
// and liveness property — token recreation repairs any loss, so the
// protocol needs no reliable interconnect.
func TestTokenLossVerifiesAllActivations(t *testing.T) {
	for _, act := range []Activation{SafetyOnly, ArbiterAct, DistributedAct} {
		cfg := lossCfg(act)
		if act != SafetyOnly && testing.Short() {
			cfg.T = 3
		}
		res := mc.CheckOpt(NewTokenModel(cfg), mc.Options{Symmetry: true})
		t.Log(res)
		if !res.OK() {
			t.Fatalf("%v+loss failed: %v", act, res)
		}
	}
}

// TestTokenLossEnlargesStateSpace asserts the loss transitions are not
// dead: the loss model reaches strictly more states than the reliable
// model at the same configuration, and the corpus contains states with
// tokens actually in the Lost pool.
func TestTokenLossEnlargesStateSpace(t *testing.T) {
	base := mc.CheckOpt(NewTokenModel(DefaultTokenConfig(SafetyOnly)), mc.Options{})
	loss := mc.CheckOpt(NewTokenModel(lossCfg(SafetyOnly)), mc.Options{})
	if !base.OK() || !loss.OK() {
		t.Fatalf("models failed: base %v, loss %v", base, loss)
	}
	if loss.States <= base.States {
		t.Fatalf("loss model reached %d states, reliable model %d — loss transitions never fired",
			loss.States, base.States)
	}

	m := NewTokenModel(lossCfg(SafetyOnly))
	st := m.newState()
	lost := 0
	for _, s := range explore(t, m, 3000) {
		m.decode(s, &st)
		if st.Lost > 0 {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("no reachable state holds lost tokens")
	}
}

// TestTokenLossRoundTrip extends the injectivity property to the Lost
// byte: decode→encode is the identity over a loss-model corpus of every
// activation variant.
func TestTokenLossRoundTrip(t *testing.T) {
	for _, act := range []Activation{SafetyOnly, ArbiterAct, DistributedAct} {
		m := NewTokenModel(lossCfg(act))
		st := m.newState()
		key := make([]byte, m.width)
		for _, s := range explore(t, m, 3000) {
			m.decode(s, &st)
			m.encode(&st, key)
			if string(key) != s {
				t.Fatalf("%s: decode→encode changed the key\n in: %x\nout: %x", m.Name(), s, key)
			}
		}
	}
}

// TestTokenLossLayoutIsOptIn pins the zero-cost contract: disabling
// loss leaves the packed layout, the model name, and the initial states
// byte-identical to the pre-loss encoding (the state-count pins and
// golden outputs must not move), while enabling it appends exactly one
// trailing byte and a "+loss" name suffix.
func TestTokenLossLayoutIsOptIn(t *testing.T) {
	for _, act := range []Activation{SafetyOnly, ArbiterAct, DistributedAct} {
		base := NewTokenModel(DefaultTokenConfig(act))
		loss := NewTokenModel(lossCfg(act))
		if base.offL != -1 {
			t.Fatalf("%s: loss-free layout reserves a Lost byte", base.Name())
		}
		if loss.width != base.width+1 || loss.offL != base.width {
			t.Fatalf("%s: loss layout width %d offL %d, want trailing byte after width %d",
				loss.Name(), loss.width, loss.offL, base.width)
		}
		if !strings.HasSuffix(loss.Name(), "+loss") || strings.HasSuffix(base.Name(), "+loss") {
			t.Fatalf("names not distinguished: %q vs %q", base.Name(), loss.Name())
		}
		bi, li := base.Initial(), loss.Initial()
		if len(bi) != len(li) {
			t.Fatalf("%s: %d initial states, loss model %d", base.Name(), len(bi), len(li))
		}
		for i := range bi {
			if li[i][:base.width] != bi[i] || li[i][base.width] != 0 {
				t.Fatalf("%s: initial state %d differs beyond a zero Lost byte", base.Name(), i)
			}
		}
	}
}

// TestTokenLossConservationModuloRecreation property-checks the
// weakened invariant directly over a reachable corpus: summing tokens
// over holders and in-flight messages plus the Lost pool always yields
// exactly T.
func TestTokenLossConservationModuloRecreation(t *testing.T) {
	m := NewTokenModel(lossCfg(SafetyOnly))
	st := m.newState()
	for _, s := range explore(t, m, 3000) {
		m.decode(s, &st)
		total := st.Lost
		for _, h := range st.Holders {
			total += h.Tokens
		}
		for _, msg := range st.Msgs {
			total += msg.Tokens
		}
		if total != m.cfg.T {
			t.Fatalf("state %x: tokens+Lost = %d, want %d", s, total, m.cfg.T)
		}
	}
}

// TestTokenLossSymmetryEquivalence cross-checks the reduction on the
// loss-extended arbiter model: the orbit-expanded state count of the
// reduced run must equal the unreduced reachable count (the Lost pool
// is a cache-permutation fixed point, so the descriptor stays sound).
func TestTokenLossSymmetryEquivalence(t *testing.T) {
	cfg := lossCfg(ArbiterAct)
	cfg.T = 2
	full := mc.CheckOpt(NewTokenModel(cfg), mc.Options{})
	red := mc.CheckOpt(NewTokenModel(cfg), mc.Options{Symmetry: true})
	if !full.OK() || !red.OK() {
		t.Fatalf("models failed: full %v, reduced %v", full, red)
	}
	if !red.Symmetry {
		t.Fatal("symmetry reduction was not applied")
	}
	if red.FullStates != full.States {
		t.Fatalf("reduced FullStates %d != unreduced States %d", red.FullStates, full.States)
	}
	if red.States >= full.States {
		t.Fatalf("reduction saved nothing: %d representatives vs %d states", red.States, full.States)
	}
}
