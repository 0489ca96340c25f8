package main

import (
	"fmt"
	"runtime"

	"tokencmp/internal/mc"
	"tokencmp/internal/mc/models"
)

// mcUnit is one exhaustive check of one Section 5 model.
type mcUnit struct {
	id       string
	build    func() mc.Model
	symmetry bool
}

// mcWorkload checks a fixed list of models per pass, one at a time,
// each with two checker workers. Its inputs are fixed state spaces, so
// the seed does not change them.
type mcWorkload struct {
	units  []mcUnit
	models []mc.Model // built by setup, index-aligned with units
}

// mcModels are the three models the workload checks, at three caches so
// that one check takes a fraction of a second and a run holds enough
// checks for its percentiles: the arbiter token model and HammerCMP with
// symmetry reduction (their host time is mostly canonicalization) and
// the distributed-activation token model unreduced (it declares no
// symmetry, so its host time is expansion and the state table).
func mcModels(sz sizes) []mcUnit {
	tok := func(act models.Activation, tokens int) func() mc.Model {
		return func() mc.Model {
			cfg := models.DefaultTokenConfig(act)
			cfg.Caches, cfg.T = sz.mcCaches, tokens
			return models.NewTokenModel(cfg)
		}
	}
	return []mcUnit{
		{id: "tokenarb3", build: tok(models.ArbiterAct, sz.mcArbTokens), symmetry: true},
		{id: "tokendst3", build: tok(models.DistributedAct, sz.mcDstTokens)},
		{id: "hammer3", build: func() mc.Model { return models.NewHammerModel(sz.mcCaches, 5) }, symmetry: true},
	}
}

func modelcheckWorkload(sz sizes) *mcWorkload { return &mcWorkload{units: mcModels(sz)} }

// setup builds every model, then checks the first one untimed.
func (w *mcWorkload) setup(tr *tracer, parent int64) error {
	w.models = w.models[:0]
	for _, u := range w.units {
		sp := tr.begin("mc.model "+u.id, parent)
		w.models = append(w.models, u.build())
		tr.end(sp)
	}
	return w.check(0, &cpuMeter{}, tr, parent).err
}

func (w *mcWorkload) pass(tr *tracer, parent int64) (passResult, error) {
	p := passResult{units: make([]unitResult, len(w.units))}
	m := &cpuMeter{}
	cpu := processCPU()
	sp := tr.begin("pass", parent)
	for i := range w.units {
		p.units[i] = w.check(i, m, tr, sp.id)
	}
	p.wall = tr.end(sp).Seconds()
	p.cpu = (processCPU() - cpu).Seconds()
	return p, nil
}

// check runs one model check. When tracing it also measures the bytes
// the check allocates.
func (w *mcWorkload) check(i int, m *cpuMeter, tr *tracer, parent int64) unitResult {
	u := w.units[i]
	r := unitResult{id: u.id}
	sp := tr.begin("check "+u.id, parent)
	share := m.begin()
	var before runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	cs := tr.begin("mc.check."+u.id, sp.id)
	res := mc.CheckOpt(w.models[i], mc.Options{Jobs: jobs, Symmetry: u.symmetry})
	tr.end(cs)
	if tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r.allocBytes = after.TotalAlloc - before.TotalAlloc
	}
	r.cpuMS = ms(m.end(share))
	r.ms = ms(tr.end(sp))
	r.mc = res
	r.work = float64(res.States)
	r.digest = mcDigest(res)
	if !res.OK() {
		r.err = fmt.Errorf("%s: %s", u.id, res)
	}
	return r
}

// mcDigest is the check's verdict and exact counts.
func mcDigest(r *mc.Result) string {
	status := "PASS"
	if !r.OK() {
		status = "FAIL"
	}
	return fmt.Sprintf("%s states=%d full=%d transitions=%d diameter=%d", status, r.States, r.FullStates, r.Transitions, r.Diameter)
}
