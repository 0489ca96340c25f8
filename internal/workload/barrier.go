package workload

import (
	"math/rand"

	"tokencmp/internal/cpu"
	"tokencmp/internal/mem"
	"tokencmp/internal/sim"
)

// BarrierConfig parameterizes the barrier micro-benchmark (Table 2):
// processors perform local work, then pass a sense-reversing barrier
// built from a lock-protected counter in one cache block and a sense flag
// in another, repeating for Iterations rounds.
type BarrierConfig struct {
	Iterations int
	Work       sim.Time // local work per round (3000 ns in the paper)
	// Jitter adds U(-Jitter, +Jitter) to each round's work (the paper
	// uses ±1000 ns in Table 4's right column; 0 disables).
	Jitter sim.Time
	Procs  int
	Base   mem.Addr
}

// DefaultBarrier returns the Table 2/Table 4 parameters.
func DefaultBarrier(procs int, jitter sim.Time) BarrierConfig {
	return BarrierConfig{
		Iterations: 20,
		Work:       sim.NS(3000),
		Jitter:     jitter,
		Procs:      procs,
		Base:       0x200000,
	}
}

func (c BarrierConfig) lockAddr() mem.Addr  { return c.Base }
func (c BarrierConfig) countAddr() mem.Addr { return c.Base + mem.BlockSize }
func (c BarrierConfig) flagAddr() mem.Addr  { return c.Base + 2*mem.BlockSize }

type barrierState int

const (
	bsWork barrierState = iota
	bsLockTest
	bsLockSwap
	bsLockEntered
	bsGotCount
	bsStoredCount // non-last: release next
	bsReleasedSpin
	bsSpin
	bsLastZeroed  // last proc: stored zero count, flip flag next
	bsLastFlipped // flag stored, release lock
	bsLastReleased
)

// BarrierProgram is one processor's barrier thread.
type BarrierProgram struct {
	cfg  BarrierConfig
	proc int
	// rng draws the work jitter. It is built from seed on the first
	// draw, so a run without jitter builds none.
	rng   *rand.Rand
	seed  int64
	state barrierState
	round int
	sense uint64
	count uint64
	mon   *LockMonitor
}

// NewBarrierProgram builds the thread for processor proc.
func NewBarrierProgram(cfg BarrierConfig, proc int, seed int64, mon *LockMonitor) *BarrierProgram {
	return &BarrierProgram{
		cfg:   cfg,
		proc:  proc,
		seed:  seed*2_000_003 + int64(proc) + 11,
		sense: 1,
		mon:   mon,
	}
}

func (p *BarrierProgram) work() sim.Time {
	w := p.cfg.Work
	if p.cfg.Jitter > 0 {
		if p.rng == nil {
			p.rng = rand.New(rand.NewSource(p.seed))
		}
		w += sim.Time(p.rng.Int63n(int64(2*p.cfg.Jitter)+1)) - p.cfg.Jitter
	}
	if w < 0 {
		w = 0
	}
	return w
}

// Next implements cpu.Program.
func (p *BarrierProgram) Next(now sim.Time, last uint64) cpu.Action {
	cfg := p.cfg
	switch p.state {
	case bsWork:
		p.state = bsLockTest
		return cpu.Think(p.work())
	case bsLockTest:
		p.state = bsLockSwap
		return cpu.LoadOf(cfg.lockAddr())
	case bsLockSwap:
		if last != 0 {
			return cpu.LoadOf(cfg.lockAddr())
		}
		p.state = bsLockEntered
		return cpu.Swap(cfg.lockAddr(), 1)
	case bsLockEntered:
		if last != 0 {
			p.state = bsLockSwap
			return cpu.LoadOf(cfg.lockAddr())
		}
		if p.mon != nil {
			p.mon.Enter(cfg.lockAddr(), p.proc)
		}
		p.state = bsGotCount
		return cpu.LoadOf(cfg.countAddr())
	case bsGotCount:
		p.count = last + 1
		if int(p.count) == cfg.Procs {
			p.state = bsLastZeroed
			return cpu.StoreOf(cfg.countAddr(), 0)
		}
		p.state = bsStoredCount
		return cpu.StoreOf(cfg.countAddr(), p.count)
	case bsStoredCount:
		if p.mon != nil {
			p.mon.Exit(cfg.lockAddr(), p.proc)
		}
		p.state = bsReleasedSpin
		return cpu.StoreOf(cfg.lockAddr(), 0)
	case bsReleasedSpin:
		p.state = bsSpin
		return cpu.LoadOf(cfg.flagAddr())
	case bsSpin:
		if last != p.sense {
			return cpu.LoadOf(cfg.flagAddr())
		}
		return p.passBarrier()
	case bsLastZeroed:
		p.state = bsLastFlipped
		return cpu.StoreOf(cfg.flagAddr(), p.sense)
	case bsLastFlipped:
		if p.mon != nil {
			p.mon.Exit(cfg.lockAddr(), p.proc)
		}
		p.state = bsLastReleased
		return cpu.StoreOf(cfg.lockAddr(), 0)
	case bsLastReleased:
		return p.passBarrier()
	default:
		panic("barrier: bad state")
	}
}

func (p *BarrierProgram) passBarrier() cpu.Action {
	p.round++
	p.sense = 1 - p.sense
	if p.round >= p.cfg.Iterations {
		return cpu.Done()
	}
	p.state = bsLockTest
	return cpu.Think(p.work())
}

// BarrierPrograms builds one thread per processor.
func BarrierPrograms(cfg BarrierConfig, seed int64) ([]cpu.Program, *LockMonitor) {
	mon := NewLockMonitor()
	out := make([]cpu.Program, cfg.Procs)
	for i := range out {
		out[i] = NewBarrierProgram(cfg, i, seed, mon)
	}
	return out, mon
}
