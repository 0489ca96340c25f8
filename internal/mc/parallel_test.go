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
