package workload

import (
	"math/rand"
	"slices"
	"testing"

	"tokencmp/internal/cpu"
	"tokencmp/internal/mem"
	"tokencmp/internal/sim"
)

// fakeMemory runs Programs against an instantly-coherent memory,
// checking the program logic independent of any protocol.
type fakeMemory struct {
	values map[mem.Block]uint64
	ops    int
	// won and lost count the swaps that read zero and nonzero.
	won, lost int
}

// do performs one memory action and returns the value it read.
func (fm *fakeMemory) do(act cpu.Action) (last uint64) {
	b := mem.BlockOf(act.Addr)
	switch act.Kind {
	case cpu.ActLoad, cpu.ActIFetch:
		last = fm.values[b]
	case cpu.ActStore:
		fm.values[b] = act.Value
	case cpu.ActAtomic:
		last = fm.values[b]
		fm.values[b] = act.Value
		if last == 0 {
			fm.won++
		} else {
			fm.lost++
		}
	default:
		return 0
	}
	fm.ops++
	return last
}

// runInterleaved steps the programs round-robin, one action each per
// round, and reports whether all finished within limit rounds.
func runInterleaved(progs []cpu.Program, fm *fakeMemory, limit int) bool {
	if fm.values == nil {
		fm.values = map[mem.Block]uint64{}
	}
	last := make([]uint64, len(progs))
	done := make([]bool, len(progs))
	for i, left := 0, len(progs); i < limit; i++ {
		for j, p := range progs {
			if done[j] {
				continue
			}
			act := p.Next(sim.Time(i), last[j])
			last[j] = fm.do(act)
			if act.Kind == cpu.ActDone {
				done[j] = true
				if left--; left == 0 {
					return true
				}
			}
		}
	}
	return false
}

func runProgram(t *testing.T, p cpu.Program, fm *fakeMemory, limit int) bool {
	t.Helper()
	return runInterleaved([]cpu.Program{p}, fm, limit)
}

func TestLockingProgramCompletes(t *testing.T) {
	cfg := DefaultLocking(4)
	cfg.Acquires = 10
	progs, mon := LockingPrograms(cfg, 1, 1)
	p := progs[0].(*LockingProgram)
	fm := &fakeMemory{}
	if !runProgram(t, p, fm, 100000) {
		t.Fatal("program did not finish")
	}
	if p.acquired != 10 {
		t.Errorf("acquired = %d, want 10", p.acquired)
	}
	if mon.Acquires != 10 || len(mon.Violations) != 0 {
		t.Errorf("monitor: %d acquires, %d violations", mon.Acquires, len(mon.Violations))
	}
	// All locks must be free at the end.
	for b, v := range fm.values {
		if v != 0 {
			t.Errorf("lock %v left held (%d)", b, v)
		}
	}
}

func TestLockingAvoidsLastLock(t *testing.T) {
	cfg := DefaultLocking(8)
	progs, _ := LockingPrograms(cfg, 1, 1)
	p := progs[0].(*LockingProgram)
	last := mem.Addr(0)
	for i := 0; i < 50; i++ {
		lock := p.pickLock()
		if lock == last && cfg.Locks > 1 {
			t.Fatal("picked the same lock twice in a row")
		}
		last = lock
	}
}

// refPicker is the lazy pick generator the locking threads used to
// carry: a source per processor, drawing each pick as the thread
// reaches it.
type refPicker struct {
	rng         *rand.Rand
	locks, last int
}

func newRefPicker(locks, proc int, seed int64) *refPicker {
	return &refPicker{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(proc) + 7)), locks: locks, last: -1}
}

func (r *refPicker) next() int {
	i := r.rng.Intn(r.locks)
	if r.locks > 1 && i == r.last {
		i = (i + 1 + r.rng.Intn(r.locks-1)) % r.locks
	}
	r.last = i
	return i
}

// acquiredLocks runs a locking thread that wins every test-and-set and
// returns the lock of each acquisition, in order.
func acquiredLocks(t *testing.T, p cpu.Program) []mem.Addr {
	t.Helper()
	var got []mem.Addr
	for range 1 << 20 {
		act := p.Next(0, 0)
		switch act.Kind {
		case cpu.ActAtomic:
			got = append(got, act.Addr)
		case cpu.ActDone:
			return got
		}
	}
	t.Fatal("locking thread did not finish")
	return nil
}

// FuzzLockingPicks checks the picks LockingPrograms draws up front, and
// those a thread draws once it runs past the maxPreDrawn bound, against
// the lazy reference generator: every processor acquires the same locks
// in the same order.
func FuzzLockingPicks(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, locks, acquires uint16, procs uint8) {
		cfg := DefaultLocking(1 + int(locks)%1024)
		cfg.Acquires = int(acquires) % (maxPreDrawn + 100) // 0 still acquires once
		n := 1 + int(procs)%32
		progs, _ := LockingPrograms(cfg, n, seed)
		for proc, p := range progs {
			got := acquiredLocks(t, p)
			ref := newRefPicker(cfg.Locks, proc, seed)
			if want := max(cfg.Acquires, 1); len(got) != want {
				t.Fatalf("proc %d: %d acquisitions, want %d", proc, len(got), want)
			}
			for i := range got {
				want := blockAddr(lockingBase, ref.next())
				if got[i] != want {
					t.Fatalf("proc %d acquisition %d: lock %#x, want %#x",
						proc, i, uint64(got[i]), uint64(want))
				}
			}
		}
	})
}

func TestLockMonitorDetectsViolation(t *testing.T) {
	mon := NewLockMonitor()
	mon.Enter(0x100, 0)
	mon.Enter(0x100, 1) // second holder: violation
	if len(mon.Violations) != 1 {
		t.Fatalf("violations = %d, want 1", len(mon.Violations))
	}
}

// TestTTAS drives one acquisition through the values its test loads and
// swaps read.
func TestTTAS(t *testing.T) {
	const lock mem.Addr = 0x40
	load, swap := cpu.LoadOf(lock), cpu.Swap(lock, 1)
	for _, tc := range []struct {
		name  string
		reads []uint64     // what each issued load or swap reads
		want  []cpu.Action // the actions after the first test load
	}{
		{"free lock", []uint64{0, 0}, []cpu.Action{swap}},
		{"held lock", []uint64{1, 1, 1, 0, 0}, []cpu.Action{load, load, load, swap}},
		{"lost swap", []uint64{0, 1, 1, 0, 0}, []cpu.Action{swap, load, load, swap}},
	} {
		var a ttas
		if got := a.start(lock); got != load {
			t.Fatalf("%s: start issued %+v, want a test load", tc.name, got)
		}
		var got []cpu.Action
		for i, v := range tc.reads {
			act, acquired := a.next(v)
			if acquired != (i == len(tc.reads)-1) {
				t.Fatalf("%s: read %d reported acquired %v", tc.name, i, acquired)
			}
			if !acquired {
				got = append(got, act)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: issued %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestOneEnterPerAcquisition runs each workload's threads interleaved on
// fake memory, where threads contend for locks and lose swaps: the
// monitor sees one Enter per won swap and per acquisition the program
// makes.
func TestOneEnterPerAcquisition(t *testing.T) {
	lc := DefaultLocking(1)
	lc.Acquires = 20
	locking, lmon := LockingPrograms(lc, 3, 1)
	bc := DefaultBarrier(3, 0)
	bc.Iterations = 10
	barrier, bmon := BarrierPrograms(bc, 1)
	params := OLTP()
	params.TxnsPerProc = 5
	commercial, cmon := CommercialPrograms(params, 3, 1)
	for _, tc := range []struct {
		name  string
		progs []cpu.Program
		mon   *LockMonitor
		want  int
	}{
		{"locking", locking, lmon, 3 * lc.Acquires},
		{"barrier", barrier, bmon, 3 * bc.Iterations},
		{"commercial", commercial, cmon, 3 * params.TxnsPerProc * params.LockedSectionsPerTxn},
	} {
		fm := &fakeMemory{}
		if !runInterleaved(tc.progs, fm, 1000000) {
			t.Fatalf("%s: threads did not finish", tc.name)
		}
		if tc.mon.Acquires != uint64(tc.want) || fm.won != tc.want {
			t.Errorf("%s: %d Enters and %d won swaps, want %d", tc.name, tc.mon.Acquires, fm.won, tc.want)
		}
		if fm.lost == 0 {
			t.Errorf("%s: no swap lost its race", tc.name)
		}
		if len(tc.mon.Violations) != 0 {
			t.Errorf("%s: violations %v", tc.name, tc.mon.Violations)
		}
	}
}

func TestBarrierProgramSoloCompletes(t *testing.T) {
	cfg := DefaultBarrier(1, 0)
	cfg.Iterations = 5
	p := newBarrierProgram(cfg, 0, 1, NewLockMonitor())
	fm := &fakeMemory{}
	if !runProgram(t, p, fm, 100000) {
		t.Fatal("single-processor barrier did not finish")
	}
	if p.round != 5 {
		t.Errorf("rounds = %d, want 5", p.round)
	}
}

func TestBarrierProgramsInterleaved(t *testing.T) {
	// Round-robin two barrier threads against shared fake memory: the
	// sense-reversing protocol must let both finish every round.
	cfg := DefaultBarrier(2, 0)
	cfg.Iterations = 4
	mon := NewLockMonitor()
	p0 := newBarrierProgram(cfg, 0, 1, mon)
	p1 := newBarrierProgram(cfg, 1, 1, mon)
	if !runInterleaved([]cpu.Program{p0, p1}, &fakeMemory{}, 100000) {
		t.Fatalf("barrier threads stuck (rounds %d/%d)", p0.round, p1.round)
	}
	if len(mon.Violations) != 0 {
		t.Errorf("violations: %v", mon.Violations)
	}
}

func TestBarrierJitterBounded(t *testing.T) {
	cfg := DefaultBarrier(2, sim.NS(1000))
	p := newBarrierProgram(cfg, 0, 1, NewLockMonitor())
	for i := 0; i < 1000; i++ {
		w := p.work()
		if w < sim.NS(2000) || w > sim.NS(4000) {
			t.Fatalf("work %v outside 3000±1000 ns", w)
		}
	}
}

// TestBarrierJitterAtTheBound draws work at 1 ms of jitter, the largest
// that experiments.Spec.Validate accepts (experiments.MaxJitter). Every
// draw lies in [barrierWork-J, barrierWork+J], clamped at zero, and none
// panics.
func TestBarrierJitterAtTheBound(t *testing.T) {
	cfg := DefaultBarrier(2, sim.Millisecond)
	p := newBarrierProgram(cfg, 0, 1, NewLockMonitor())
	lo, hi := max(barrierWork-cfg.Jitter, 0), barrierWork+cfg.Jitter
	sawLong := false
	for range 1000 {
		w := p.work()
		if w < lo || w > hi {
			t.Fatalf("work %v outside [%v, %v]", w, lo, hi)
		}
		sawLong = sawLong || w > barrierWork+cfg.Jitter/2
	}
	if !sawLong {
		t.Error("1000 draws never passed Work+J/2: the jitter is not applied")
	}
}

// TestBarrierJitterBuiltLazily pins the lazily built jitter source: a
// barrier thread without jitter builds none over a whole run, and one
// with jitter draws the stream of a source seeded up front.
func TestBarrierJitterBuiltLazily(t *testing.T) {
	cfg := DefaultBarrier(1, 0)
	cfg.Iterations = 5
	p := newBarrierProgram(cfg, 0, 1, NewLockMonitor())
	if !runProgram(t, p, &fakeMemory{}, 100000) {
		t.Fatal("single-processor barrier did not finish")
	}
	if p.rng != nil {
		t.Error("a barrier run without jitter built a jitter source")
	}

	cfg.Jitter = sim.NS(1000)
	const proc, seed = 3, 5
	p = newBarrierProgram(cfg, proc, seed, NewLockMonitor())
	ref := rand.New(rand.NewSource(seed*2_000_003 + proc + 11))
	for i := range 100 {
		want := barrierWork + sim.Time(ref.Int63n(int64(2*cfg.Jitter)+1)) - cfg.Jitter
		if got := p.work(); got != want {
			t.Fatalf("draw %d: work %v, want %v", i, got, want)
		}
	}
}

func TestCommercialProgramCompletes(t *testing.T) {
	for _, params := range []CommercialParams{OLTP(), Apache(), SPECjbb()} {
		params.TxnsPerProc = 3
		mon := NewLockMonitor()
		p := newCommercialProgram(params, 0, 1, mon)
		fm := &fakeMemory{}
		if !runProgram(t, p, fm, 1000000) {
			t.Fatalf("%s program did not finish", params.Name)
		}
		if p.txns != 3 {
			t.Errorf("%s transactions = %d, want 3", params.Name, p.txns)
		}
		if len(mon.Violations) != 0 {
			t.Errorf("%s violations: %v", params.Name, mon.Violations)
		}
		if fm.ops == 0 {
			t.Errorf("%s issued no memory operations", params.Name)
		}
	}
}

// TestCommercialNextDoesNotAllocate pins steady-state Next at zero
// allocations: each transaction's steps reuse the queue's backing array.
// One measured run issues steps until the next transaction is compiled.
func TestCommercialNextDoesNotAllocate(t *testing.T) {
	for _, params := range []CommercialParams{OLTP(), Apache(), SPECjbb()} {
		params.TxnsPerProc = 1 << 30
		p := newCommercialProgram(params, 1, 1, NewLockMonitor())
		nextTxn := func() {
			for n := p.txns; p.txns == n; {
				p.Next(0, 0)
			}
		}
		nextTxn()
		if avg := testing.AllocsPerRun(20, nextTxn); avg != 0 {
			t.Errorf("%s: a transaction's Next calls allocate %.1f times, want 0", params.Name, avg)
		}
	}
}

func TestCommercialDeterministicPerSeed(t *testing.T) {
	gen := func(seed int64) []cpu.Action {
		p := newCommercialProgram(OLTP(), 2, seed, NewLockMonitor())
		var acts []cpu.Action
		var last uint64
		for i := 0; i < 200; i++ {
			a := p.Next(0, last)
			last = 0
			acts = append(acts, a)
			if a.Kind == cpu.ActDone {
				break
			}
		}
		return acts
	}
	a, b := gen(7), gen(7)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("action %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := gen(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestCommercialAddressRegionsDisjoint(t *testing.T) {
	p := newCommercialProgram(OLTP(), 1, 1, NewLockMonitor())
	var last uint64
	private := map[mem.Block]bool{}
	for i := 0; i < 5000; i++ {
		a := p.Next(0, last)
		last = 0
		if a.Kind == cpu.ActDone {
			break
		}
		if a.Kind == cpu.ActStore || a.Kind == cpu.ActLoad {
			if a.Addr >= privateBase && a.Addr < sharedBase {
				private[mem.BlockOf(a.Addr)] = true
			}
		}
	}
	// Proc 1's private blocks must not collide with proc 0's range.
	for b := range private {
		idx := int(b.Addr()-privateBase) / mem.BlockSize
		if idx < OLTP().PrivateBlocksPerProc {
			t.Fatalf("proc 1 touched proc 0's private block %v", b)
		}
	}
}
