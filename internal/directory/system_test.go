package directory

import (
	"testing"

	"tokencmp/internal/cpu"
	"tokencmp/internal/hier"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
	"tokencmp/internal/topo"
)

func testSystem(t *testing.T, zero bool) (*sim.Engine, *System) {
	t.Helper()
	eng := sim.NewEngine()
	h := hier.Config{Geom: topo.NewGeometry(2, 2, 1), L1Size: 4 << 10, L2BankSize: 32 << 10}
	return eng, NewSystem(eng, h, zero, network.Default())
}

func run(t *testing.T, eng *sim.Engine, cond func() bool, what string) {
	t.Helper()
	if !eng.RunUntil(cond, 2_000_000) {
		t.Fatalf("%s: did not complete (events=%d, pending=%d, now=%v)",
			what, eng.Executed, eng.Pending(), eng.Now())
	}
}

func TestDirSingleLoad(t *testing.T) {
	eng, sys := testSystem(t, false)
	d, _ := sys.Ports(0)
	var done bool
	var val uint64
	d.Access(cpu.Load, 0x1000, 0, func(v uint64) { done = true; val = v })
	run(t, eng, func() bool { return done }, "load")
	if val != 0 {
		t.Errorf("load = %d, want 0", val)
	}
}

func TestDirStoreThenRemoteLoad(t *testing.T) {
	eng, sys := testSystem(t, false)
	p0, _ := sys.Ports(0)
	p3, _ := sys.Ports(3)
	var done bool
	p0.Access(cpu.Store, 0x2000, 7, func(uint64) { done = true })
	run(t, eng, func() bool { return done }, "store")

	done = false
	var val uint64
	p3.Access(cpu.Load, 0x2000, 0, func(v uint64) { done = true; val = v })
	run(t, eng, func() bool { return done }, "remote load")
	if val != 7 {
		t.Errorf("remote load = %d, want 7 (migratory transfer)", val)
	}
}

// TestDirPinnedSetRetry fills one-set L2 banks with pinned lines: five
// processors of one chip miss at once on five blocks of their bank, so
// the last to arrive finds every way pinned by an in-flight transaction
// and must retry its reservation until another transaction completes.
// The five processors of the other chip then load the five blocks at
// once, which pins their own bank's set the same way, and must read the
// stored values.
func TestDirPinnedSetRetry(t *testing.T) {
	const n = 5 // one more than the bank's ways
	eng := sim.NewEngine()
	h := hier.Config{Geom: topo.NewGeometry(2, n, 1), L1Size: 256, L2BankSize: 256}
	sys := NewSystem(eng, h, false, network.Default())
	addr := func(i int) mem.Addr { return mem.Addr(i * mem.BlockSize) }
	// A transaction whose block has no line yet is waiting for a way:
	// its reservation failed and its retry is scheduled.
	retried := make([]bool, len(sys.L2s))
	watch := func(cmp int) {
		bank := sys.L2s[cmp][0]
		for i := range n {
			b := mem.BlockOf(addr(i))
			if bank.busy(b) != nil && bank.lookup(b) == nil {
				retried[cmp] = true
			}
		}
	}
	stored := 0
	for p := range n {
		d, _ := sys.Ports(p)
		d.Access(cpu.Store, addr(p), uint64(100+p), func(uint64) { stored++ })
	}
	run(t, eng, func() bool { watch(0); return stored == n }, "stores")
	loaded := 0
	vals := make([]uint64, n)
	for p := range n {
		d, _ := sys.Ports(n + p) // the other chip
		d.Access(cpu.Load, addr(p), 0, func(v uint64) { vals[p] = v; loaded++ })
	}
	run(t, eng, func() bool { watch(1); return loaded == n }, "loads")
	for p, v := range vals {
		if v != uint64(100+p) {
			t.Errorf("block %d loaded %d, want %d", p, v, 100+p)
		}
	}
	for cmp, r := range retried {
		if !r {
			t.Errorf("chip %d's bank never waited for a way", cmp)
		}
	}
}

func TestDirLocalSharingThenUpgrade(t *testing.T) {
	eng, sys := testSystem(t, false)
	p0, _ := sys.Ports(0)
	p1, _ := sys.Ports(1) // same CMP
	var n int
	p0.Access(cpu.Load, 0x3000, 0, func(uint64) { n++ })
	run(t, eng, func() bool { return n == 1 }, "p0 load")
	p1.Access(cpu.Load, 0x3000, 0, func(uint64) { n++ })
	run(t, eng, func() bool { return n == 2 }, "p1 load")
	// Now p1 upgrades to M: p0 must be invalidated.
	p1.Access(cpu.Store, 0x3000, 9, func(uint64) { n++ })
	run(t, eng, func() bool { return n == 3 }, "p1 store")
	var val uint64
	p0.Access(cpu.Load, 0x3000, 0, func(v uint64) { n++; val = v })
	run(t, eng, func() bool { return n == 4 }, "p0 reload")
	if val != 9 {
		t.Errorf("p0 reload = %d, want 9", val)
	}
}

func TestDirAtomicSerializes(t *testing.T) {
	for _, zero := range []bool{false, true} {
		eng, sys := testSystem(t, zero)
		const addr = 0x4000
		results := make([]uint64, 4)
		cnt := 0
		for i := 0; i < 4; i++ {
			i := i
			d, _ := sys.Ports(i)
			d.Access(cpu.Atomic, addr, uint64(i+1), func(old uint64) {
				results[i] = old
				cnt++
			})
		}
		run(t, eng, func() bool { return cnt == 4 }, "atomics")
		seen := map[uint64]bool{}
		for _, r := range results {
			if seen[r] {
				t.Fatalf("duplicate swap result %d: %v", r, results)
			}
			seen[r] = true
		}
		if !seen[0] {
			t.Errorf("no swap saw initial value: %v", results)
		}
	}
}

func TestDirContendedStores(t *testing.T) {
	eng, sys := testSystem(t, false)
	const addr = 0x5000
	total := 0
	var issue func(proc, n int)
	issue = func(proc, n int) {
		if n == 0 {
			return
		}
		d, _ := sys.Ports(proc)
		d.Access(cpu.Store, addr, uint64(proc*100+n), func(uint64) {
			total++
			issue(proc, n-1)
		})
	}
	for p := 0; p < 4; p++ {
		issue(p, 5)
	}
	run(t, eng, func() bool { return total == 20 }, "contended stores")
}

func TestDirEvictionWriteback(t *testing.T) {
	eng, sys := testSystem(t, false)
	d, _ := sys.Ports(0)
	// 4KB 4-way L1 with 64B blocks: 16 sets. Write 3 blocks mapping to
	// the same set beyond associativity to force writebacks, then read
	// the first back.
	setStride := mem.Addr(16 * 64)
	base := mem.Addr(0x8000)
	n := 0
	var write func(i int)
	write = func(i int) {
		if i == 6 {
			return
		}
		d.Access(cpu.Store, base+mem.Addr(i)*setStride, uint64(100+i), func(uint64) {
			n++
			write(i + 1)
		})
	}
	write(0)
	run(t, eng, func() bool { return n == 6 }, "writes")
	var val uint64
	done := false
	d.Access(cpu.Load, base, 0, func(v uint64) { done = true; val = v })
	run(t, eng, func() bool { return done }, "readback")
	if val != 100 {
		t.Errorf("readback = %d, want 100", val)
	}
}

// countSink counts deliveries without retaining the message.
type countSink struct{ n *int }

func (s countSink) Recv(*network.Message) { *s.n++ }

// TestInvDeliveryDoesNotAllocate pins one invalidation forwarded to an
// L1 at zero allocations: the L1 defers the delivered message across its
// tag access, finds no copy, and acks the requester.
func TestInvDeliveryDoesNotAllocate(t *testing.T) {
	eng, sys := testSystem(t, false)
	g := topo.NewGeometry(2, 2, 1)
	req, acks := g.L2Node(1, 0), 0
	sys.Net.Attach(req, countSink{&acks})
	inv := network.Message{Src: req, Dst: g.L1DNode(1, 1), Block: 64, Kind: kInv, Requestor: req}
	sys.Net.SendNew(inv)
	eng.Run(0)
	avg := testing.AllocsPerRun(100, func() {
		sys.Net.SendNew(inv)
		eng.Run(0)
	})
	if avg != 0 {
		t.Errorf("invalidation delivery allocates %.2f per message, want 0", avg)
	}
	// One warm-up message, AllocsPerRun's own warm-up, then 100 measured.
	if acks != 102 {
		t.Errorf("requester got %d acks, want 102", acks)
	}
}

// TestL1MissDoesNotAllocate pins the L1 side of a steady-state miss at
// zero allocations: the access waits out the tag access, misses,
// reserves its line and sends the request, which the bank absorbs.
func TestL1MissDoesNotAllocate(t *testing.T) {
	eng, sys := testSystem(t, false)
	g := topo.NewGeometry(2, 2, 1)
	l1, addr, reqs := sys.L1Ds[0][1], mem.Addr(0x4000), 0
	sys.Net.Attach(g.L2BankFor(0, mem.BlockOf(addr)), countSink{&reqs})
	done := func(uint64) {}
	miss := func() {
		l1.Access(cpu.Load, addr, 0, done)
		eng.Run(0)
		l1.Finish() // drop the miss the absorbed request left outstanding
	}
	miss()
	if avg := testing.AllocsPerRun(100, miss); avg != 0 {
		t.Errorf("L1 miss allocates %.2f per miss, want 0", avg)
	}
	// One warm-up miss, AllocsPerRun's own warm-up, then 100 measured.
	if reqs != 102 {
		t.Errorf("bank got %d requests, want 102", reqs)
	}
}
