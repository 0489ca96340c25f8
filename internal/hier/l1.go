package hier

import (
	"fmt"

	"tokencmp/internal/cache"
	"tokencmp/internal/counters"
	"tokencmp/internal/cpu"
	"tokencmp/internal/mem"
	"tokencmp/internal/sim"
	"tokencmp/internal/topo"
)

// Miss is the processor access an L1 is serving: parked across the tag
// access and then, if it missed, the outstanding miss. Txn is the
// stack's own state for the miss; every access starts it zeroed.
type Miss[T any] struct {
	Kind  cpu.AccessKind
	Block mem.Block
	Store uint64
	Txn   T
	done  func(uint64)
}

// L1 is the processor-facing half every stack's L1 controller shares.
// It implements cpu.MemPort: it charges the L1 tag access, then runs the
// stack's hit check, and it counts l1.hit and l1.miss. A processor
// blocks on each memory operation and each L1 serves one processor
// port, so one slot, held by value, serves every access.
type L1[T any] struct {
	Miss Miss[T]

	eng           *sim.Engine
	id            topo.NodeID
	instr         bool
	busy, missing bool // an access is in the slot; it missed
	hits, misses  *counters.Counter
	attempt       func() // the stack's hit check, run after the tag access
}

// Init sets up the front end of L1 id, counting into cs; attempt is the
// stack's hit check for the access in Miss.
func (f *L1[T]) Init(eng *sim.Engine, cs *counters.Set, id topo.NodeID, instr bool, attempt func()) {
	f.eng, f.id, f.instr, f.attempt = eng, id, instr, attempt
	f.hits, f.misses = cs.Counter(counters.L1Hit), cs.Counter(counters.L1Miss)
}

// Access implements cpu.MemPort.
func (f *L1[T]) Access(kind cpu.AccessKind, addr mem.Addr, store uint64, done func(uint64)) {
	if f.instr && kind != cpu.IFetch {
		panic("hier: data access routed to L1I")
	}
	if f.busy {
		panic(fmt.Sprintf("hier: L1 %v already busy on %v", f.id, f.Miss.Block))
	}
	f.busy = true
	f.Miss = Miss[T]{Kind: kind, Block: mem.BlockOf(addr), Store: store, done: done}
	f.eng.ScheduleCall(L1Latency, runAttempt, f.attempt, nil)
}

// runAttempt is Access's ScheduleCall target: attempt, bound once in
// Init, is pointer-shaped, so it rides in ctx without allocating.
func runAttempt(attempt, _ any) { attempt.(func())() }

// Hit completes the parked access as a hit returning v.
func (f *L1[T]) Hit(v uint64) {
	f.hits.Inc()
	f.busy = false
	f.Miss.done(v)
}

// Missed makes the parked access the outstanding miss.
func (f *L1[T]) Missed() {
	f.misses.Inc()
	f.missing = true
}

// For returns the outstanding miss if it is for b, or nil.
func (f *L1[T]) For(b mem.Block) *Miss[T] {
	if !f.missing || f.Miss.Block != b {
		return nil
	}
	return &f.Miss
}

// Finish ends the outstanding miss and returns its completion callback.
// Miss keeps the finished access until the callback starts the next.
func (f *L1[T]) Finish() (done func(uint64)) {
	f.busy, f.missing = false, false
	return f.Miss.done
}

// State is a MOESI line state. The zero value I also marks a line that
// an outstanding miss reserved but has not filled yet.
type State uint8

// MOESI line states.
const (
	I State = iota
	S
	E
	M
	O
)

// Line is an L1 line of the MOESI stacks.
type Line struct {
	St        State
	Data      uint64
	Dirty     bool
	HoldUntil sim.Time // end of the response-delay hold
}

// MOESIL1 is the L1 front end of the MOESI stacks (directory and
// hammercmp): the L1 slot, the line array and the hit path. The stack
// supplies its miss request and its handling of a displaced line.
type MOESIL1[T any] struct {
	L1[T]
	Cache *cache.Array[Line]

	request func()                    // sends the outstanding miss's request
	evict   func(b mem.Block, l Line) // handles a displaced line
}

// Init sets up the front end of L1 id with a cache of parameters p.
func (f *MOESIL1[T]) Init(eng *sim.Engine, cs *counters.Set, id topo.NodeID, instr bool, p cache.Params,
	request func(), evict func(mem.Block, Line)) {
	f.L1.Init(eng, cs, id, instr, f.serve)
	f.Cache = cache.New[Line](p)
	f.request, f.evict = request, evict
}

// serve serves a load from any valid line and a store from an E or M
// line (E silently becomes M). Anything else misses: it reserves the
// line, so the victim's writeback overlaps the request, and sends the
// request.
func (f *MOESIL1[T]) serve() {
	m := &f.Miss
	l := f.Cache.Lookup(m.Block)
	if l != nil && l.State.St != I {
		s := &l.State
		if m.Kind == cpu.Load || m.Kind == cpu.IFetch || s.St == M || s.St == E {
			f.Cache.TouchLine(l)
			f.Hit(f.Apply(s))
			return
		}
		// S or O: write permission needs an upgrade.
	}
	f.Missed()
	if l == nil { // a resident line keeps its state: an upgrade keeps its data
		f.reserve(m.Block)
	}
	f.request()
}

// reserve installs a line for b, which is not resident, handing a
// displaced line to evict. It runs only with no miss outstanding, so any
// way may be the victim.
func (f *MOESIL1[T]) reserve(b mem.Block) {
	if _, victim, vstate, wasEvicted := f.Cache.Install(b); wasEvicted {
		f.evict(victim, vstate)
	}
}

// Apply performs the access in Miss on line s, which has permission for
// it, and returns the processor's value. A load reads; a store or swap
// writes, leaves the line M and starts the response-delay hold (§3.2).
func (f *MOESIL1[T]) Apply(s *Line) uint64 {
	m := &f.Miss
	if m.Kind == cpu.Load || m.Kind == cpu.IFetch {
		return s.Data
	}
	old := s.Data
	s.St, s.Data, s.Dirty = M, m.Store, true
	s.HoldUntil = f.eng.Now() + ResponseDelay
	if m.Kind == cpu.Atomic {
		return old
	}
	return 0
}
