package cpu

import (
	"testing"

	"tokencmp/internal/mem"
	"tokencmp/internal/sim"
)

// scriptProg replays a fixed action list.
type scriptProg struct {
	acts []Action
	i    int
	seen []uint64
}

func (p *scriptProg) Next(now sim.Time, last uint64) Action {
	p.seen = append(p.seen, last)
	if p.i >= len(p.acts) {
		return Done()
	}
	a := p.acts[p.i]
	p.i++
	return a
}

// flatPort is an instantly-coherent memory with fixed latency.
type flatPort struct {
	eng    *sim.Engine
	vals   map[mem.Block]uint64
	lat    sim.Time
	counts map[AccessKind]int
}

func (f *flatPort) Access(kind AccessKind, addr mem.Addr, store uint64, done func(uint64)) {
	f.counts[kind]++
	f.eng.ScheduleCall(f.lat, func(_, _ any) {
		b := mem.BlockOf(addr)
		var v uint64
		switch kind {
		case Load, IFetch:
			v = f.vals[b]
		case Store:
			f.vals[b] = store
		case Atomic:
			v = f.vals[b]
			f.vals[b] = store
		}
		done(v)
	}, nil, nil)
}

func newFlat(eng *sim.Engine) *flatPort {
	return &flatPort{eng: eng, vals: map[mem.Block]uint64{}, lat: sim.NS(5), counts: map[AccessKind]int{}}
}

func TestProcessorRunsScript(t *testing.T) {
	eng := sim.NewEngine()
	data, inst := newFlat(eng), newFlat(eng)
	prog := &scriptProg{acts: []Action{
		Think(sim.NS(10)),
		StoreOf(0x100, 7),
		LoadOf(0x100),
		Swap(0x100, 9),
		LoadOf(0x100),
		Fetch(0x200),
	}}
	p := &Processor{Eng: eng, Data: data, Inst: inst, Prog: prog}
	p.Start()
	eng.Run(0)
	if !p.finished {
		t.Fatal("processor did not finish")
	}
	// seen: [0(start), 0(think), 0(store), 7(load), 7(swap-old), 9(load), 0(ifetch)]
	want := []uint64{0, 0, 0, 7, 7, 9, 0}
	for i, w := range want {
		if prog.seen[i] != w {
			t.Errorf("seen[%d] = %d, want %d (%v)", i, prog.seen[i], w, prog.seen)
		}
	}
	// Each action reaches its port under its own access kind.
	if len(data.counts) != 3 || data.counts[Load] != 2 || data.counts[Store] != 1 || data.counts[Atomic] != 1 {
		t.Errorf("data port counts = %v, want 2 loads, 1 store, 1 atomic", data.counts)
	}
	if len(inst.counts) != 1 || inst.counts[IFetch] != 1 {
		t.Errorf("instruction port counts = %v, want 1 ifetch", inst.counts)
	}
	if p.MemOps != 5 {
		t.Errorf("MemOps = %d, want 5", p.MemOps)
	}
}

func TestProcessorTiming(t *testing.T) {
	eng := sim.NewEngine()
	port := newFlat(eng)
	prog := &scriptProg{acts: []Action{
		Think(sim.NS(100)),
		LoadOf(0x40), // +5ns
	}}
	p := &Processor{Eng: eng, Data: port, Inst: port, Prog: prog}
	p.Start()
	eng.Run(0)
	if !p.finished || eng.Now() != sim.NS(105) {
		t.Errorf("finished %v at %v, want at 105ns", p.finished, eng.Now())
	}
	if p.MemOps != 1 {
		t.Errorf("MemOps = %d, want 1", p.MemOps)
	}
}

func TestAccessKindStrings(t *testing.T) {
	for _, k := range []AccessKind{Load, Store, Atomic, IFetch} {
		if k.String() == "Access?" {
			t.Errorf("kind %d has no name", k)
		}
	}
}
