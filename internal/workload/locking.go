// Package workload builds the paper's benchmark programs (Table 2): the
// locking and barrier micro-benchmarks, implemented exactly as described,
// and synthetic surrogates for the Wisconsin Commercial Workload Suite
// macro-benchmarks (OLTP, Apache, SPECjbb). The paper ran those suites as
// full-system Simics images, which are not available here. What a
// coherence protocol sees of them is their sharing-miss profile, so each
// surrogate is a seeded reference stream tuned to its suite's mix of
// migratory, read-mostly, private and lock-protected accesses.
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

// ttas is one lock acquisition by test-and-test-and-set, the way every
// Table 2 workload takes its locks: spin on loads while the lock reads
// taken, and swap in 1 once it reads free.
type ttas struct {
	lock    mem.Addr
	swapped bool // the swap, not a test load, is in flight
}

// start begins acquiring lock with its first test load.
func (t *ttas) start(lock mem.Addr) cpu.Action {
	t.lock, t.swapped = lock, false
	return cpu.LoadOf(lock)
}

// next takes the value the last load or swap returned. It gives the next
// load or swap, or reports acquired once a swap has won.
func (t *ttas) next(last uint64) (act cpu.Action, acquired bool) {
	switch {
	case last != 0: // the lock is taken, or the swap lost the race
		t.swapped = false
		return cpu.LoadOf(t.lock), false
	case t.swapped:
		return cpu.Action{}, true
	}
	t.swapped = true
	return cpu.Swap(t.lock, 1), false
}

// LockingConfig parameterizes the locking micro-benchmark: each
// processor thinks for lockThink, acquires a random lock (different from
// the last lock acquired) with test-and-test-and-set, holds it for
// lockHold, and repeats until it has performed Acquires acquisitions.
type LockingConfig struct {
	Locks    int
	Acquires int // per processor
}

// Table 2 locking parameters. The locks occupy one block each from
// lockingBase.
const (
	lockThink            = 10 * sim.Nanosecond
	lockHold             = 10 * sim.Nanosecond
	lockingBase mem.Addr = 0x100000
)

// DefaultLocking returns the Table 2 parameters with the given lock
// count (contention is varied by changing the number of locks).
func DefaultLocking(locks int) LockingConfig {
	return LockingConfig{Locks: locks, Acquires: 64}
}

type lockingState int

const (
	lsStart    lockingState = iota // think before the first acquisition
	lsTest                         // think done: pick a lock and start acquiring it
	lsAcquire                      // test-and-test-and-set in progress
	lsRelease                      // hold time elapsed: store zero
	lsReleased                     // release store completed: credit and loop
)

// LockingProgram is one processor's locking micro-benchmark thread.
type LockingProgram struct {
	cfg      LockingConfig
	proc     int
	mon      *LockMonitor
	state    lockingState
	acq      ttas
	acquired int

	// picks holds the pre-drawn lock indices still to come. A thread
	// that runs past them draws the rest from drawn, its own picker
	// seeded with seed.
	picks []int32
	seed  int64
	drawn picker
}

// maxPreDrawn caps the picks LockingPrograms draws for a processor
// before the run. It lies above every default and benchmark acquire
// count, so those runs draw no pick during the run, while a run cut
// short after a few of a huge acquire count pays for no more.
const maxPreDrawn = 1024

// lockSeed seeds processor proc's stream of lock picks.
func lockSeed(seed int64, proc int) int64 { return seed*1_000_003 + int64(proc) + 7 }

// picker draws one processor's lock picks, each uniform over the locks
// other than the one before.
type picker struct {
	rng   *rand.Rand
	locks int
	last  int
}

func (k *picker) next() int {
	i := k.rng.Intn(k.locks)
	if k.locks > 1 && i == k.last {
		i = (i + 1 + k.rng.Intn(k.locks-1)) % k.locks
	}
	k.last = i
	return i
}

// pickLock takes the next acquisition's lock.
func (p *LockingProgram) pickLock() mem.Addr {
	if len(p.picks) == 0 {
		if p.drawn.rng == nil {
			// Past the pre-drawn picks: rebuild the source and replay them.
			p.drawn = picker{rng: rand.New(rand.NewSource(p.seed)), locks: p.cfg.Locks, last: -1}
			for range maxPreDrawn {
				p.drawn.next()
			}
		}
		return blockAddr(lockingBase, p.drawn.next())
	}
	i := p.picks[0]
	p.picks = p.picks[1:]
	return blockAddr(lockingBase, int(i))
}

// Next implements cpu.Program.
func (p *LockingProgram) Next(now sim.Time, last uint64) cpu.Action {
	switch p.state {
	case lsTest:
		p.state = lsAcquire
		return p.acq.start(p.pickLock())
	case lsAcquire:
		act, acquired := p.acq.next(last)
		if !acquired {
			return act
		}
		p.mon.Enter(p.acq.lock, p.proc)
		p.state = lsRelease
		return cpu.Think(lockHold)
	case lsRelease:
		p.state = lsReleased
		return cpu.StoreOf(p.acq.lock, 0)
	case lsReleased:
		p.mon.Exit(p.acq.lock, p.proc)
		p.acquired++
		if p.acquired >= p.cfg.Acquires {
			return cpu.Done()
		}
	}
	p.state = lsTest
	return cpu.Think(lockThink)
}

// LockingPrograms builds one thread per processor, sharing a monitor.
// One PRNG, reseeded with each processor's seed in turn, draws each
// processor's first picks (one per acquisition, and at least one, since
// the first is picked before the Acquires check) into one shared slice:
// the same picks as a source per processor, without a 5 KB source for
// each.
func LockingPrograms(cfg LockingConfig, procs int, seed int64) ([]cpu.Program, *LockMonitor) {
	mon := NewLockMonitor()
	per := min(max(cfg.Acquires, 1), maxPreDrawn)
	picks := make([]int32, 0, procs*per)
	rng := rand.New(rand.NewSource(0))
	progs := make([]LockingProgram, procs)
	out := make([]cpu.Program, procs)
	for i := range out {
		s := lockSeed(seed, i)
		rng.Seed(s)
		k := picker{rng: rng, locks: cfg.Locks, last: -1}
		for range per {
			picks = append(picks, int32(k.next()))
		}
		progs[i] = LockingProgram{cfg: cfg, proc: i, mon: mon, picks: picks[i*per : (i+1)*per], seed: s}
		out[i] = &progs[i]
	}
	return out, mon
}
