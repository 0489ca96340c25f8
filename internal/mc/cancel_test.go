package mc_test

import (
	"context"
	"strings"
	"testing"

	"tokencmp/internal/mc"
	"tokencmp/internal/mc/models"
)

// TestCheckOptInterrupted asserts a cancelled context aborts the
// exploration with Partial set and a strictly smaller
// state count, and that the starvation field stays undecided.
func TestCheckOptInterrupted(t *testing.T) {
	m := models.NewTokenModel(models.DefaultTokenConfig(models.ArbiterAct))
	full := mc.CheckOpt(m, mc.Options{})
	if !full.OK() || full.Partial {
		t.Fatalf("baseline run not clean: %v", full)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := mc.CheckOpt(m, mc.Options{Context: ctx})
	if !res.Partial {
		t.Fatalf("pre-cancelled run not marked partial: %v", res)
	}
	if res.States >= full.States {
		t.Errorf("interrupted run explored %d states, full run %d — expected a strict prefix", res.States, full.States)
	}
	if res.Starvation != "" {
		t.Errorf("interrupted run decided starvation: %q", res.Starvation)
	}
}

// TestCheckOptLiveContextIdenticalCounts asserts an installed but
// uncancelled context changes nothing: States/Transitions/Diameter all
// match a context-free run, at jobs=1 and jobs=8, with and without
// symmetry reduction.
func TestCheckOptLiveContextIdenticalCounts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, jobs := range []int{1, 8} {
		for _, symmetry := range []bool{false, true} {
			m := models.NewTokenModel(models.DefaultTokenConfig(models.SafetyOnly))
			plain := mc.CheckOpt(m, mc.Options{Jobs: jobs, Symmetry: symmetry})
			live := mc.CheckOpt(m, mc.Options{Jobs: jobs, Symmetry: symmetry, Context: ctx})
			if live.Partial {
				t.Fatalf("jobs=%d symmetry=%v: live context reported interruption", jobs, symmetry)
			}
			if plain.States != live.States || plain.Transitions != live.Transitions ||
				plain.Diameter != live.Diameter || plain.FullStates != live.FullStates {
				t.Errorf("jobs=%d symmetry=%v: counts diverged with a live context: %v vs %v",
					jobs, symmetry, plain, live)
			}
		}
	}
}

// TestCheckOptCappedIsPartial asserts a state cap that drops reachable
// states marks the run partial and leaves starvation undecided: the
// truncated graph lacks the edges by which capped states reach a
// non-pending one, so deciding it there would report false starvation.
func TestCheckOptCappedIsPartial(t *testing.T) {
	for _, m := range []mc.Model{
		models.NewTokenModel(models.DefaultTokenConfig(models.ArbiterAct)),
		models.NewDirModel(3, 3),
	} {
		res := mc.CheckOpt(m, mc.Options{Limit: 100})
		if !res.Partial {
			t.Errorf("%s: run capped at 100 states not marked partial: %v", m.Name(), res)
		}
		if res.Starvation != "" {
			t.Errorf("%s: capped run decided starvation: %v", m.Name(), res)
		}
		if !strings.Contains(res.String(), " PARTIAL ") {
			t.Errorf("%s: capped run prints %q, want PARTIAL", m.Name(), res)
		}
	}
}
