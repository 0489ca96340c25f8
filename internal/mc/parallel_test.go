package mc_test

import (
	"fmt"
	"testing"

	"tokencmp/internal/mc"
	"tokencmp/internal/mc/models"
)

// fieldsOf flattens every Result field except Elapsed, which is the only
// field allowed to vary with the worker count.
func fieldsOf(r *mc.Result) string {
	return fmt.Sprintf("model=%s states=%d transitions=%d diameter=%d violation=%v bad=%q deadlock=%q starvation=%q",
		r.Model, r.States, r.Transitions, r.Diameter, r.Violation, r.BadState, r.Deadlock, r.Starvation)
}

func smallTokenModel() mc.Model {
	cfg := models.DefaultTokenConfig(models.SafetyOnly)
	cfg.T = 2
	return models.NewTokenModel(cfg)
}

// TestCheckJobsDeterministic asserts the parallel checker's Result is
// byte-identical to the serial path for every jobs width, on both model
// families and both with and without a state cap.
func TestCheckJobsDeterministic(t *testing.T) {
	cases := []struct {
		name  string
		build func() mc.Model
		limit int
	}{
		{"token-safety", smallTokenModel, 0},
		{"token-safety-capped", smallTokenModel, 500},
		{"directory", func() mc.Model { return models.NewDirModel(2, 2) }, 0},
		{"token-dst", func() mc.Model {
			cfg := models.DefaultTokenConfig(models.DistributedAct)
			cfg.T = 2
			return models.NewTokenModel(cfg)
		}, 0},
	}
	for _, tc := range cases {
		serial := fieldsOf(mc.CheckOpt(tc.build(), mc.Options{Limit: tc.limit, Jobs: 1}))
		for _, jobs := range []int{2, 8} {
			got := fieldsOf(mc.CheckOpt(tc.build(), mc.Options{Limit: tc.limit, Jobs: jobs}))
			if got != serial {
				t.Errorf("%s: jobs=%d diverged\nserial:   %s\nparallel: %s", tc.name, jobs, serial, got)
			}
		}
	}
}

// TestCheckLimitExact asserts the state cap is honored exactly: the old
// checker explored limit+1 states and then let the final expansion
// overshoot arbitrarily.
func TestCheckLimitExact(t *testing.T) {
	full := mc.CheckOpt(smallTokenModel(), mc.Options{})
	if full.States < 60 {
		t.Fatalf("model too small for the test: %d states", full.States)
	}
	for _, jobs := range []int{1, 4} {
		for _, limit := range []int{1, 17, 50} {
			res := mc.CheckOpt(smallTokenModel(), mc.Options{Limit: limit, Jobs: jobs})
			if res.States != limit {
				t.Errorf("jobs=%d limit=%d: explored %d states, want exactly %d", jobs, limit, res.States, limit)
			}
		}
		// A cap beyond the reachable set must not truncate anything.
		res := mc.CheckOpt(smallTokenModel(), mc.Options{Limit: full.States + 1000, Jobs: jobs})
		if res.States != full.States || res.Transitions != full.Transitions {
			t.Errorf("jobs=%d: capped run (%d states, %d transitions) != full run (%d, %d)",
				jobs, res.States, res.Transitions, full.States, full.Transitions)
		}
	}
}

// treeModel is a ternary tree over 16-bit state numbers: state x < 1000
// has children 3x+1, 3x+2 and 3x+3 (the first emitted twice) and an
// edge back to the root, so BFS discovers the states in numeric order,
// several frontier chunks wide. The inner states are pending and only
// the root satisfies them, through the back edges. States from 80 on
// with x%5 == 3 violate safety, and leaves with x%3 == 1 are
// deadlocks, so one chunk holds several of each.
type treeModel struct{}

func treeKey(x int) string { return string([]byte{byte(x >> 8), byte(x)}) }
func treeNum(s string) int { return int(s[0])<<8 | int(s[1]) }

func (treeModel) Name() string      { return "tree" }
func (treeModel) Initial() []string { return []string{treeKey(0)} }
func (treeModel) Successors(s string, sb *mc.SuccBuf) {
	if x := treeNum(s); x < 1000 {
		for _, c := range []int{3*x + 1, 3*x + 1, 3*x + 2, 3*x + 3, 0} {
			sb.Emit([]byte(treeKey(c)))
		}
	}
}
func (treeModel) Check(s string) error {
	if x := treeNum(s); x >= 80 && x%5 == 3 {
		return fmt.Errorf("bad state %d", x)
	}
	return nil
}
func (treeModel) Quiescent(s string) bool  { return treeNum(s)%3 != 1 }
func (treeModel) Pending(s string) bool    { return treeNum(s) < 1000 }
func (treeModel) Satisfying(s string) bool { return treeNum(s) == 0 }

// TestCheckReportsFirstWitness pins which violating and deadlocked
// states the checker reports when several exist: the first in BFS order,
// whichever frontier chunk and worker found them. It also requires every
// state's back edge to survive the merge: a lost one would leave its
// state starving.
func TestCheckReportsFirstWitness(t *testing.T) {
	for _, jobs := range []int{1, 2, 8} {
		r := mc.CheckOpt(treeModel{}, mc.Options{Jobs: jobs})
		if r.States != 3001 || r.Transitions != 5000 || r.Diameter != 7 {
			t.Errorf("jobs=%d: states=%d transitions=%d diameter=%d, want 3001/5000/7", jobs, r.States, r.Transitions, r.Diameter)
		}
		if r.Violation == nil || treeNum(r.BadState) != 83 {
			t.Errorf("jobs=%d: violation %v at %q, want the one at state 83", jobs, r.Violation, r.BadState)
		}
		if r.Deadlock == "" || treeNum(r.Deadlock) != 1000 {
			t.Errorf("jobs=%d: deadlock at %q, want state 1000", jobs, r.Deadlock)
		}
		if r.Starvation != "" {
			t.Errorf("jobs=%d: state %d starves", jobs, treeNum(r.Starvation))
		}
	}
}
