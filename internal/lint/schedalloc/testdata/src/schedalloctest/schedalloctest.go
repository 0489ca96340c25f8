// Package schedalloctest is the schedalloc analysistest corpus: the
// per-event closure allocations the analyzer reports, plus the idioms
// that replaced them (which must stay clean). Compiles against the real
// sim.Engine; never linked.
package schedalloctest

import (
	"tokencmp/internal/sim"
)

type Proc struct {
	eng  *sim.Engine
	accs []int
	done func(int)
}

// --- Capturing thunks defeat ScheduleCall: flagged anywhere. ---

func (p *Proc) captureThunk(v int) {
	p.eng.ScheduleCall(sim.NS(1), func(ctx, arg any) { // want `capturing closure passed to Engine\.ScheduleCall defeats the closure-free fast path`
		p.done(v)
	}, nil, nil)
}

func (p *Proc) captureThunkAt(v int) {
	p.eng.ScheduleCallAt(sim.NS(1), func(ctx, arg any) { // want `capturing closure passed to Engine\.ScheduleCallAt defeats the closure-free fast path`
		p.done(v)
	}, nil, nil)
}

func (p *Proc) captureLoopVar() {
	for i, a := range p.accs {
		p.eng.ScheduleCall(sim.NS(int64(i)), (func(_, _ any) { // want `capturing closure passed to Engine\.ScheduleCall defeats`
			p.done(a)
		}), nil, nil)
	}
}

var deferred = func(p *Proc) {
	p.eng.ScheduleCall(0, func(_, _ any) { p.done(0) }, nil, nil) // want `capturing closure passed to Engine\.ScheduleCall defeats`
}

// --- Clean idioms. ---

// procDone is the package-level thunk idiom (cpu.procStep).
func procDone(ctx, arg any) {
	p := ctx.(*Proc)
	p.done(*arg.(*int))
}

func (p *Proc) startAllThunk() {
	for i := range p.accs {
		p.eng.ScheduleCall(sim.NS(int64(i)), procDone, p, &p.accs[i])
	}
}

// nonCapturing literals are static function values: no allocation.
func (p *Proc) nonCapturing() {
	for range p.accs {
		p.eng.ScheduleCall(sim.NS(1), func(ctx, arg any) {}, p, nil)
	}
	p.eng.ScheduleCallAt(sim.NS(1), func(ctx, _ any) { ctx.(*Proc).done(0) }, p, nil)
}
