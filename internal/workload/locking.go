// Package workload builds the paper's benchmark programs (Table 2): the
// locking and barrier micro-benchmarks, implemented exactly as described,
// and synthetic surrogates for the Wisconsin Commercial Workload Suite
// macro-benchmarks (OLTP, Apache, SPECjbb) — see DESIGN.md §4 for the
// substitution rationale.
package workload

import (
	"fmt"
	"math/rand"

	"tokencmp/internal/cpu"
	"tokencmp/internal/mem"
	"tokencmp/internal/sim"
)

// LockMonitor asserts mutual exclusion across all processors sharing a
// lock set. The simulation engine is single-threaded, so plain counters
// suffice; callbacks execute in completion order.
type LockMonitor struct {
	holders map[mem.Addr]int
	// Violations records mutual-exclusion failures (protocol bugs).
	Violations []string
	// Acquires counts successful lock acquisitions.
	Acquires uint64
}

// NewLockMonitor returns an empty monitor.
func NewLockMonitor() *LockMonitor {
	return &LockMonitor{holders: make(map[mem.Addr]int)}
}

// Enter registers a successful acquire.
func (m *LockMonitor) Enter(lock mem.Addr, proc int) {
	m.holders[lock]++
	m.Acquires++
	if m.holders[lock] != 1 {
		m.Violations = append(m.Violations,
			fmt.Sprintf("proc %d entered lock %#x with %d holders", proc, uint64(lock), m.holders[lock]))
	}
}

// Exit registers a release.
func (m *LockMonitor) Exit(lock mem.Addr, proc int) {
	m.holders[lock]--
	if m.holders[lock] != 0 {
		m.Violations = append(m.Violations,
			fmt.Sprintf("proc %d exited lock %#x leaving %d holders", proc, uint64(lock), m.holders[lock]))
	}
}

// LockingConfig parameterizes the locking micro-benchmark: each
// processor thinks for Think, acquires a random lock (different from the
// last lock acquired) with test-and-test-and-set, holds it for Hold, and
// repeats until it has performed Acquires acquisitions.
type LockingConfig struct {
	Locks    int
	Acquires int // per processor
	Think    sim.Time
	Hold     sim.Time
	Base     mem.Addr // first lock's address; locks occupy one block each
}

// DefaultLocking returns the Table 2 parameters with the given lock
// count (contention is varied by changing the number of locks).
func DefaultLocking(locks int) LockingConfig {
	return LockingConfig{
		Locks:    locks,
		Acquires: 64,
		Think:    sim.NS(10),
		Hold:     sim.NS(10),
		Base:     0x100000,
	}
}

// LockAddr returns the address of lock i.
func (c LockingConfig) LockAddr(i int) mem.Addr {
	return c.Base + mem.Addr(i)*mem.BlockSize
}

type lockingState int

const (
	lsStart    lockingState = iota
	lsTest                  // think done: start the spin (load the lock word)
	lsSwap                  // load returned: maybe attempt test-and-set
	lsHold                  // swap returned: maybe enter the critical section
	lsRelease               // hold time elapsed: store zero
	lsReleased              // release store completed: credit and loop
)

// LockingProgram is one processor's locking micro-benchmark thread.
type LockingProgram struct {
	cfg      LockingConfig
	proc     int
	picks    []int32 // lock indices of the acquisitions still to come
	mon      *LockMonitor
	state    lockingState
	lock     mem.Addr
	acquired int
}

// picksPerProc is the number of locks a processor picks: one per
// acquisition, and at least one, since the first is picked before the
// Acquires check.
func (c LockingConfig) picksPerProc() int { return max(c.Acquires, 1) }

// lockSeed seeds processor proc's stream of lock picks.
func lockSeed(seed int64, proc int) int64 { return seed*1_000_003 + int64(proc) + 7 }

// appendPicks appends one processor's cfg.picksPerProc() lock picks,
// drawn from rng, each a uniform lock different from the one before.
func appendPicks(dst []int32, rng *rand.Rand, cfg LockingConfig) []int32 {
	n, last := cfg.Locks, -1
	for range cfg.picksPerProc() {
		i := rng.Intn(n)
		if n > 1 && i == last {
			i = (i + 1 + rng.Intn(n-1)) % n
		}
		dst = append(dst, int32(i))
		last = i
	}
	return dst
}

// pickLock takes the next acquisition's lock.
func (p *LockingProgram) pickLock() {
	p.lock = p.cfg.LockAddr(int(p.picks[0]))
	p.picks = p.picks[1:]
}

// Next implements cpu.Program.
func (p *LockingProgram) Next(now sim.Time, last uint64) cpu.Action {
	switch p.state {
	case lsStart:
		p.pickLock()
		p.state = lsTest
		return cpu.Think(p.cfg.Think)
	case lsTest:
		// Test phase of test-and-test-and-set: spin on loads.
		p.state = lsSwap
		return cpu.LoadOf(p.lock)
	case lsSwap:
		if last != 0 {
			// Lock held: keep spinning.
			return cpu.LoadOf(p.lock)
		}
		p.state = lsHold
		return cpu.Swap(p.lock, 1)
	case lsHold:
		if last != 0 {
			// Lost the race: back to the test phase.
			p.state = lsSwap
			return cpu.LoadOf(p.lock)
		}
		if p.mon != nil {
			p.mon.Enter(p.lock, p.proc)
		}
		p.state = lsRelease
		return cpu.Think(p.cfg.Hold)
	case lsRelease:
		p.state = lsReleased
		return cpu.StoreOf(p.lock, 0)
	case lsReleased:
		if p.mon != nil {
			p.mon.Exit(p.lock, p.proc)
		}
		p.acquired++
		if p.acquired >= p.cfg.Acquires {
			return cpu.Done()
		}
		p.pickLock()
		p.state = lsTest
		return cpu.Think(p.cfg.Think)
	default:
		panic("locking: bad state")
	}
}

// LockingPrograms builds one thread per processor, sharing a monitor.
// One PRNG, reseeded with each processor's seed in turn, draws every
// processor's picks into one shared slice: the same picks as a source
// per processor, without a 5 KB source for each.
func LockingPrograms(cfg LockingConfig, procs int, seed int64) ([]cpu.Program, *LockMonitor) {
	mon := NewLockMonitor()
	per := cfg.picksPerProc()
	picks := make([]int32, 0, procs*per)
	rng := rand.New(rand.NewSource(0))
	progs := make([]LockingProgram, procs)
	out := make([]cpu.Program, procs)
	for i := range out {
		rng.Seed(lockSeed(seed, i))
		picks = appendPicks(picks, rng, cfg)
		progs[i] = LockingProgram{cfg: cfg, proc: i, picks: picks[i*per : (i+1)*per], mon: mon}
		out[i] = &progs[i]
	}
	return out, mon
}
