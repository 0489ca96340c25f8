package mc_test

import (
	"testing"

	"tokencmp/internal/mc"
	"tokencmp/internal/mc/models"
)

// TestPackedEquivalence pins the packed-binary encoding to the seed
// string pipeline: the reachable-state counts below were captured from
// the pre-refactor checker (fmt-built string states, decode cache) and
// must be reproduced exactly by the packed models, serially and in
// parallel. States, Transitions, and Diameter are properties of the
// reachable graph, so any encoding bug that merges or splits state
// equivalence classes moves at least one of them.
func TestPackedEquivalence(t *testing.T) {
	cases := []struct {
		name                          string
		build                         func() mc.Model
		states, transitions, diameter int
	}{
		{"TokenCMP-safety-T4", func() mc.Model {
			return models.NewTokenModel(models.DefaultTokenConfig(models.SafetyOnly))
		}, 1020, 6423, 10},
		{"TokenCMP-arb-T3", func() mc.Model {
			cfg := models.DefaultTokenConfig(models.ArbiterAct)
			cfg.T = 3
			return models.NewTokenModel(cfg)
		}, 77736, 630655, 17},
		{"TokenCMP-dst-T3", func() mc.Model {
			cfg := models.DefaultTokenConfig(models.DistributedAct)
			cfg.T = 3
			return models.NewTokenModel(cfg)
		}, 44280, 365063, 17},
		{"DirectoryCMP-flat", func() mc.Model {
			return models.DefaultDirModel()
		}, 4985, 13539, 28},
		{"HammerCMP-flat-2c", func() mc.Model {
			return models.NewHammerModel(2, 5)
		}, 4947, 13508, 36},
	}
	for _, tc := range cases {
		for _, jobs := range []int{1, 8} {
			r := mc.CheckOpt(tc.build(), mc.Options{Jobs: jobs})
			if !r.OK() {
				t.Errorf("%s jobs=%d: %v", tc.name, jobs, r)
				continue
			}
			if r.States != tc.states || r.Transitions != tc.transitions || r.Diameter != tc.diameter {
				t.Errorf("%s jobs=%d: got states=%d transitions=%d diameter=%d, seed had %d/%d/%d",
					tc.name, jobs, r.States, r.Transitions, r.Diameter,
					tc.states, tc.transitions, tc.diameter)
			}
		}
	}
}

// TestPackedEquivalenceFullScale covers the paper-scale T=4 token
// models and the 3-cache hammer model (the big Section 5 runs), pinned
// to the same pre-refactor counts.
func TestPackedEquivalenceFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale equivalence skipped in -short mode")
	}
	cases := []struct {
		name                          string
		build                         func() mc.Model
		states, transitions, diameter int
	}{
		{"TokenCMP-arb-T4", func() mc.Model {
			return models.NewTokenModel(models.DefaultTokenConfig(models.ArbiterAct))
		}, 372880, 3036014, 21},
		{"TokenCMP-dst-T4", func() mc.Model {
			return models.NewTokenModel(models.DefaultTokenConfig(models.DistributedAct))
		}, 212400, 1753337, 22},
		{"HammerCMP-flat-3c", func() mc.Model {
			return models.DefaultHammerModel()
		}, 233339, 913287, 63},
	}
	for _, tc := range cases {
		r := mc.CheckOpt(tc.build(), mc.Options{})
		if !r.OK() {
			t.Errorf("%s: %v", tc.name, r)
			continue
		}
		if r.States != tc.states || r.Transitions != tc.transitions || r.Diameter != tc.diameter {
			t.Errorf("%s: got states=%d transitions=%d diameter=%d, seed had %d/%d/%d",
				tc.name, r.States, r.Transitions, r.Diameter,
				tc.states, tc.transitions, tc.diameter)
		}
	}
}

// reducedCase pins one symmetry-reduced run: quotient-graph counts
// (canonical representatives, edges, BFS depth over orbits) plus the
// orbit-expanded FullStates, which must reproduce the unreduced state
// count exactly. symmetric is false for the distributed-activation
// model, whose fixed-priority arbitration opts out of reduction — its
// reduced run must be byte-identical to the unreduced one.
type reducedCase struct {
	name                          string
	build                         func() mc.Model
	symmetric                     bool
	states, transitions, diameter int
	fullStates                    int
}

func checkReduced(t *testing.T, tc reducedCase, jobs int) {
	t.Helper()
	r := mc.CheckOpt(tc.build(), mc.Options{Jobs: jobs, Symmetry: true})
	if !r.OK() {
		t.Errorf("%s jobs=%d: %v", tc.name, jobs, r)
		return
	}
	if r.Symmetry != tc.symmetric {
		t.Errorf("%s jobs=%d: symmetry applied=%v, want %v", tc.name, jobs, r.Symmetry, tc.symmetric)
	}
	if r.States != tc.states || r.Transitions != tc.transitions || r.Diameter != tc.diameter || r.FullStates != tc.fullStates {
		t.Errorf("%s jobs=%d: got states=%d transitions=%d diameter=%d full=%d, want %d/%d/%d/%d",
			tc.name, jobs, r.States, r.Transitions, r.Diameter, r.FullStates,
			tc.states, tc.transitions, tc.diameter, tc.fullStates)
	}
}

// TestPackedEquivalenceReduced pins the symmetry-reduced counterparts
// of the TestPackedEquivalence configurations. Every fullStates value
// below equals the corresponding unreduced states pin above: the orbit
// sizes summed over representatives account for the whole reachable
// set, so the reduction dropped no orbit and merged no distinct ones.
func TestPackedEquivalenceReduced(t *testing.T) {
	cases := []reducedCase{
		{"TokenCMP-safety-T4", func() mc.Model {
			return models.NewTokenModel(models.DefaultTokenConfig(models.SafetyOnly))
		}, true, 243, 1518, 10, 1020},
		{"TokenCMP-arb-T3", func() mc.Model {
			cfg := models.DefaultTokenConfig(models.ArbiterAct)
			cfg.T = 3
			return models.NewTokenModel(cfg)
		}, true, 13185, 107530, 17, 77736},
		{"TokenCMP-dst-T3", func() mc.Model {
			cfg := models.DefaultTokenConfig(models.DistributedAct)
			cfg.T = 3
			return models.NewTokenModel(cfg)
		}, false, 44280, 365063, 17, 44280},
		{"DirectoryCMP-flat", func() mc.Model {
			return models.DefaultDirModel()
		}, true, 922, 2531, 28, 4985},
		{"HammerCMP-flat-2c", func() mc.Model {
			return models.NewHammerModel(2, 5)
		}, true, 2476, 6762, 36, 4947},
	}
	for _, tc := range cases {
		for _, jobs := range []int{1, 8} {
			checkReduced(t, tc, jobs)
		}
	}
}

// TestPackedEquivalenceReducedFullScale pins the reduced paper-scale
// and scaled-up runs, including the headline the reduction buys: the
// 4-cache/T=4 arbiter model, whose 6.9M reachable states overflow a
// 6M-state cap unreduced, verified completely via 296k
// representatives.
func TestPackedEquivalenceReducedFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale reduced equivalence skipped in -short mode")
	}
	cases := []reducedCase{
		{"TokenCMP-arb-T4", func() mc.Model {
			return models.NewTokenModel(models.DefaultTokenConfig(models.ArbiterAct))
		}, true, 62845, 513678, 21, 372880},
		{"TokenCMP-dst-T4", func() mc.Model {
			return models.NewTokenModel(models.DefaultTokenConfig(models.DistributedAct))
		}, false, 212400, 1753337, 22, 212400},
		{"HammerCMP-flat-3c", func() mc.Model {
			return models.DefaultHammerModel()
		}, true, 40549, 158519, 63, 233339},
		{"DirectoryCMP-4c-4m", func() mc.Model {
			return models.NewDirModel(4, 4)
		}, true, 3438, 11952, 34, 62063},
		{"TokenCMP-arb-4c-T4", func() mc.Model {
			cfg := models.DefaultTokenConfig(models.ArbiterAct)
			cfg.Caches = 4
			return models.NewTokenModel(cfg)
		}, true, 295713, 3110239, 22, 6947175},
	}
	for _, tc := range cases {
		checkReduced(t, tc, 0)
	}
}

// TestSymmetryCrossCheck re-derives the reduced/unreduced agreement
// from scratch (no pinned numbers): on every model family at small
// scale, the reduced checker must reach the same verdict class as the
// unreduced one, and its orbit-expanded state count must equal the
// unreduced reachable-state count exactly.
func TestSymmetryCrossCheck(t *testing.T) {
	cases := []struct {
		name  string
		build func() mc.Model
	}{
		{"token-safety-T2", func() mc.Model {
			cfg := models.DefaultTokenConfig(models.SafetyOnly)
			cfg.T = 2
			return models.NewTokenModel(cfg)
		}},
		{"token-arb-T2", func() mc.Model {
			cfg := models.DefaultTokenConfig(models.ArbiterAct)
			cfg.T = 2
			return models.NewTokenModel(cfg)
		}},
		{"token-dst-T2", func() mc.Model {
			cfg := models.DefaultTokenConfig(models.DistributedAct)
			cfg.T = 2
			return models.NewTokenModel(cfg)
		}},
		{"directory", func() mc.Model { return models.DefaultDirModel() }},
		{"hammer-2c", func() mc.Model { return models.NewHammerModel(2, 5) }},
	}
	for _, tc := range cases {
		full := mc.CheckOpt(tc.build(), mc.Options{})
		red := mc.CheckOpt(tc.build(), mc.Options{Symmetry: true})
		if got, want := verdict(red), verdict(full); got != want {
			t.Errorf("%s: reduced verdict %q != unreduced %q", tc.name, got, want)
		}
		if red.FullStates != full.States {
			t.Errorf("%s: orbit-expanded count %d != unreduced states %d", tc.name, red.FullStates, full.States)
		}
		if red.States > full.States {
			t.Errorf("%s: reduced explored more states (%d) than unreduced (%d)", tc.name, red.States, full.States)
		}
		if full.FullStates != full.States {
			t.Errorf("%s: unreduced run reported FullStates=%d != States=%d", tc.name, full.FullStates, full.States)
		}
	}
}

// verdict classifies a result for cross-checking: reduced and
// unreduced runs must fail (or pass) the same way, though the specific
// witness state may be a different orbit member.
func verdict(r *mc.Result) string {
	switch {
	case r.Violation != nil:
		return "violation"
	case r.Deadlock != "":
		return "deadlock"
	case r.Starvation != "":
		return "starvation"
	}
	return "pass"
}

// TestScaledConfigs pins larger-than-default configurations enabled by
// the packed encoding (the cmd/modelcheck -caches/-tokens/-msgs
// scaling flags): counts captured when the configurations were first
// verified clean. The 4-cache directory needs a 4-message payload
// bound — with the default 3, a GetM against three sharers can never
// fit its invalidations plus data, and the model (correctly) reports
// the resulting throttling deadlock.
func TestScaledConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled configurations skipped in -short mode")
	}
	cases := []struct {
		name                          string
		build                         func() mc.Model
		states, transitions, diameter int
	}{
		{"DirectoryCMP-4c-4m", func() mc.Model {
			return models.NewDirModel(4, 4)
		}, 62063, 212684, 34},
		{"TokenCMP-dst-4c-T3", func() mc.Model {
			cfg := models.DefaultTokenConfig(models.DistributedAct)
			cfg.Caches = 4
			cfg.T = 3
			return models.NewTokenModel(cfg)
		}, 273325, 2898255, 18},
	}
	for _, tc := range cases {
		r := mc.CheckOpt(tc.build(), mc.Options{})
		if !r.OK() {
			t.Errorf("%s: %v", tc.name, r)
			continue
		}
		if r.States != tc.states || r.Transitions != tc.transitions || r.Diameter != tc.diameter {
			t.Errorf("%s: got states=%d transitions=%d diameter=%d, want %d/%d/%d",
				tc.name, r.States, r.Transitions, r.Diameter,
				tc.states, tc.transitions, tc.diameter)
		}
	}
}
