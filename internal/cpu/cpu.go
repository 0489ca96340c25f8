// Package cpu models the processors that drive the memory system.
//
// The paper simulates dynamically-scheduled SPARC cores under Simics; for
// protocol studies what matters is the memory reference stream, so each
// Processor here executes an explicit Program — a state machine yielding
// think intervals, loads, stores, atomic swaps, and instruction fetches —
// against the simulated hierarchy, blocking on each memory operation.
// Spin loops and lock acquires are therefore real coherence traffic.
package cpu

import (
	"tokencmp/internal/mem"
	"tokencmp/internal/sim"
)

// AccessKind is a memory operation type.
type AccessKind int

// Memory operation kinds.
const (
	Load AccessKind = iota
	Store
	Atomic // atomic swap: write, returning the previous value
	IFetch // instruction fetch (routed to the L1I)
)

func (k AccessKind) String() string {
	switch k {
	case Load:
		return "Load"
	case Store:
		return "Store"
	case Atomic:
		return "Atomic"
	case IFetch:
		return "IFetch"
	}
	return "Access?"
}

// MemPort is the interface the L1 controllers expose to their processor.
// done is invoked when the operation completes; value is the loaded (or,
// for Atomic, the previous) block value.
type MemPort interface {
	Access(kind AccessKind, addr mem.Addr, store uint64, done func(value uint64))
}

// ActionKind tells the processor what to do next.
type ActionKind int

// Program actions. Each memory action has the value of its AccessKind,
// so the processor passes its kind to the port unchanged.
const (
	ActLoad   = ActionKind(Load)
	ActStore  = ActionKind(Store)
	ActAtomic = ActionKind(Atomic)
	ActIFetch = ActionKind(IFetch)
	ActThink  = ActIFetch + 1
	ActDone   = ActIFetch + 2
)

// Action is one step of a Program.
type Action struct {
	Kind  ActionKind
	Addr  mem.Addr
	Value uint64   // store / swap value
	Dur   sim.Time // think duration
}

// Think builds a think action.
func Think(d sim.Time) Action { return Action{Kind: ActThink, Dur: d} }

// LoadOf builds a load action.
func LoadOf(a mem.Addr) Action { return Action{Kind: ActLoad, Addr: a} }

// StoreOf builds a store action.
func StoreOf(a mem.Addr, v uint64) Action { return Action{Kind: ActStore, Addr: a, Value: v} }

// Swap builds an atomic-swap action.
func Swap(a mem.Addr, v uint64) Action { return Action{Kind: ActAtomic, Addr: a, Value: v} }

// Fetch builds an instruction-fetch action.
func Fetch(a mem.Addr) Action { return Action{Kind: ActIFetch, Addr: a} }

// Done terminates a program.
func Done() Action { return Action{Kind: ActDone} }

// Program drives a processor. Next is called when the previous action
// completes; lastValue is the result of the previous load/atomic (zero
// otherwise).
type Program interface {
	Next(now sim.Time, lastValue uint64) Action
}

// Processor executes a Program against data and instruction ports.
type Processor struct {
	Eng  *sim.Engine
	Data MemPort
	Inst MemPort
	Prog Program

	// MemOps counts the memory operations the processor completed.
	MemOps uint64

	// Running, if set, counts the unfinished processors of a machine:
	// the processor decrements it when its program finishes, so a run
	// tests for completion without visiting every processor.
	Running *int

	finished bool
	lastVal  uint64
	accDone  func(uint64) // prebound completion callback, built once
}

// procStep is the closure-free ScheduleCall target for program steps:
// binding p.step as a method value would allocate on every think
// interval and access completion.
func procStep(ctx, _ any) { ctx.(*Processor).step() }

// Start begins executing the program.
func (p *Processor) Start() {
	// A processor blocks on each memory operation, so one completion
	// closure serves every access; binding it per access was the
	// simulator's top allocation site.
	p.accDone = func(v uint64) {
		p.MemOps++
		p.lastVal = v
		p.step()
	}
	p.Eng.ScheduleCall(0, procStep, p, nil)
}

func (p *Processor) step() {
	if p.finished {
		return
	}
	act := p.Prog.Next(p.Eng.Now(), p.lastVal)
	p.lastVal = 0
	switch act.Kind {
	case ActThink:
		p.Eng.ScheduleCall(act.Dur, procStep, p, nil)
	case ActLoad, ActStore, ActAtomic:
		p.Data.Access(AccessKind(act.Kind), act.Addr, act.Value, p.accDone)
	case ActIFetch:
		p.Inst.Access(IFetch, act.Addr, act.Value, p.accDone)
	case ActDone:
		p.finished = true
		if p.Running != nil {
			*p.Running--
		}
	}
}
