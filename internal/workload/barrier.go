package workload

import (
	"math/rand"

	"tokencmp/internal/cpu"
	"tokencmp/internal/mem"
	"tokencmp/internal/sim"
)

// BarrierConfig parameterizes the barrier micro-benchmark (Table 2):
// processors perform barrierWork of local work, then pass a
// sense-reversing barrier built from a lock-protected counter in one
// cache block and a sense flag in another, repeating for Iterations
// rounds.
type BarrierConfig struct {
	Iterations int
	// Jitter adds U(-Jitter, +Jitter) to each round's work (the paper
	// uses ±1000 ns in Table 4's right column; 0 disables).
	Jitter sim.Time
	Procs  int
}

// Table 2 barrier parameters: each round's local work, and the blocks of
// the counter's lock, the counter and the sense flag.
const (
	barrierWork           = 3000 * sim.Nanosecond
	barrierLock  mem.Addr = 0x200000
	barrierCount          = barrierLock + mem.BlockSize
	barrierFlag           = barrierLock + 2*mem.BlockSize
)

// DefaultBarrier returns the Table 2/Table 4 parameters.
func DefaultBarrier(procs int, jitter sim.Time) BarrierConfig {
	return BarrierConfig{Iterations: 20, Jitter: jitter, Procs: procs}
}

type barrierState int

const (
	bsWork     barrierState = iota
	bsLockTest              // work done: start acquiring the counter's lock
	bsLock                  // test-and-test-and-set in progress
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
	acq   ttas
	round int
	sense uint64
	mon   *LockMonitor
}

// newBarrierProgram builds the thread for processor proc.
func newBarrierProgram(cfg BarrierConfig, proc int, seed int64, mon *LockMonitor) *BarrierProgram {
	return &BarrierProgram{
		cfg:   cfg,
		proc:  proc,
		seed:  seed*2_000_003 + int64(proc) + 11,
		sense: 1,
		mon:   mon,
	}
}

func (p *BarrierProgram) work() sim.Time {
	w := barrierWork
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
	switch p.state {
	case bsWork:
		p.state = bsLockTest
		return cpu.Think(p.work())
	case bsLockTest:
		p.state = bsLock
		return p.acq.start(barrierLock)
	case bsLock:
		act, acquired := p.acq.next(last)
		if !acquired {
			return act
		}
		p.mon.Enter(barrierLock, p.proc)
		p.state = bsGotCount
		return cpu.LoadOf(barrierCount)
	case bsGotCount:
		count := last + 1
		if int(count) == p.cfg.Procs {
			p.state = bsLastZeroed
			return cpu.StoreOf(barrierCount, 0)
		}
		p.state = bsStoredCount
		return cpu.StoreOf(barrierCount, count)
	case bsStoredCount:
		p.mon.Exit(barrierLock, p.proc)
		p.state = bsReleasedSpin
		return cpu.StoreOf(barrierLock, 0)
	case bsReleasedSpin:
		p.state = bsSpin
		return cpu.LoadOf(barrierFlag)
	case bsSpin:
		if last != p.sense {
			return cpu.LoadOf(barrierFlag)
		}
		return p.passBarrier()
	case bsLastZeroed:
		p.state = bsLastFlipped
		return cpu.StoreOf(barrierFlag, p.sense)
	case bsLastFlipped:
		p.mon.Exit(barrierLock, p.proc)
		p.state = bsLastReleased
		return cpu.StoreOf(barrierLock, 0)
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
		out[i] = newBarrierProgram(cfg, i, seed, mon)
	}
	return out, mon
}
