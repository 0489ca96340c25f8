package cache

import (
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"tokencmp/internal/mem"
)

type lineState struct{ v int }

func newTest(sizeBlocks, ways int) *Array[lineState] {
	return New[lineState](Params{SizeBytes: sizeBlocks * 64, Ways: ways, BlockSize: 64})
}

// count reports the number of valid lines in a.
func count[S any](a *Array[S]) int {
	n := 0
	a.ForEach(func(mem.Block, *S) { n++ })
	return n
}

func TestLookupMissThenInstall(t *testing.T) {
	a := newTest(16, 4)
	if a.Lookup(5) != nil {
		t.Fatal("unexpected hit")
	}
	line, _, _, evicted := a.Install(5)
	if evicted {
		t.Fatal("eviction from empty cache")
	}
	line.State.v = 42
	got := a.Lookup(5)
	if got == nil || got.State.v != 42 {
		t.Fatal("lookup after install failed")
	}
}

func TestLRUEviction(t *testing.T) {
	a := newTest(4, 4) // one set of 4 ways... 4 blocks/4 ways = 1 set
	if a.Sets() != 1 {
		t.Fatalf("sets = %d, want 1", a.Sets())
	}
	for b := mem.Block(0); b < 4; b++ {
		a.Install(b)
	}
	a.TouchLine(a.Lookup(0)) // 0 most recent; 1 is LRU
	_, victim, _, evicted := a.Install(10)
	if !evicted || victim != 1 {
		t.Errorf("victim = %v (evicted=%v), want block 1", victim, evicted)
	}
}

func TestInstallExistingDoesNotEvict(t *testing.T) {
	a := newTest(4, 4)
	for b := mem.Block(0); b < 4; b++ {
		a.Install(b)
	}
	_, _, _, evicted := a.Install(2)
	if evicted {
		t.Error("reinstall of resident block evicted something")
	}
}

func TestInvalidate(t *testing.T) {
	a := newTest(16, 4)
	line, _, _, _ := a.Install(7)
	line.State.v = 9
	st, ok := a.Invalidate(7)
	if !ok || st.v != 9 {
		t.Fatalf("invalidate returned (%v, %v)", st, ok)
	}
	if a.Lookup(7) != nil {
		t.Fatal("block still present after invalidate")
	}
	if _, ok := a.Invalidate(7); ok {
		t.Fatal("double invalidate reported a line")
	}
}

func TestInstallAvoidingPinned(t *testing.T) {
	a := newTest(4, 4)
	for b := mem.Block(0); b < 4; b++ {
		line, _, _, _ := a.Install(b)
		line.State.v = 1 // mark pinned via predicate below
	}
	avoid := func(st *lineState) bool { return st.v == 1 }
	_, _, _, _, ok := a.InstallAvoiding(20, avoid)
	if ok {
		t.Fatal("installed despite all ways pinned")
	}
	// Unpin one line; it must be chosen.
	a.Lookup(2).State.v = 0
	_, victim, _, wasEvicted, ok := a.InstallAvoiding(20, avoid)
	if !ok || !wasEvicted || victim != 2 {
		t.Errorf("victim = %v (ok=%v), want block 2", victim, ok)
	}
}

func TestSetIndexing(t *testing.T) {
	a := newTest(64, 4) // 16 sets
	// Blocks 0 and 16 map to the same set; fill it with the conflict
	// chain and confirm blocks in other sets survive.
	for i := 0; i < 5; i++ {
		a.Install(mem.Block(i * 16))
	}
	a.Install(1) // different set
	if a.Lookup(1) == nil {
		t.Fatal("cross-set interference")
	}
}

func TestForEachAndCount(t *testing.T) {
	a := newTest(16, 4)
	for b := mem.Block(0); b < 10; b++ {
		a.Install(b)
	}
	if count(a) != 10 {
		t.Errorf("count = %d, want 10", count(a))
	}
	sum := 0
	a.ForEach(func(b mem.Block, s *lineState) { sum += int(b) })
	if sum != 45 {
		t.Errorf("block sum = %d, want 45", sum)
	}
}

// Property: the cache never holds more valid lines than its capacity and
// never holds duplicates.
func TestPropertyCapacityAndUniqueness(t *testing.T) {
	f := func(blocks []uint8) bool {
		a := newTest(8, 2) // 4 sets × 2 ways
		for _, b := range blocks {
			a.Install(mem.Block(b))
		}
		if count(a) > 8 {
			return false
		}
		seen := map[mem.Block]bool{}
		dup := false
		a.ForEach(func(b mem.Block, _ *lineState) {
			if seen[b] {
				dup = true
			}
			seen[b] = true
		})
		return !dup
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a just-installed block is always resident.
func TestPropertyInstallThenHit(t *testing.T) {
	f := func(blocks []uint16) bool {
		a := newTest(32, 4)
		for _, b := range blocks {
			a.Install(mem.Block(b))
			if a.Lookup(mem.Block(b)) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestReadsOfAbsentPagesDoNotAllocate pins the lazy sets: on a fresh
// Table 3 L2 bank (2 MB, 4 ways), nothing but an install allocates, and
// one install allocates only its set's directory group and first slab
// page, not a 64-set page of about 14 KB.
func TestReadsOfAbsentPagesDoNotAllocate(t *testing.T) {
	a := New[lineState](Params{SizeBytes: (8 << 20) / 4, Ways: 4, BlockSize: mem.BlockSize})
	if a.Sets() != 8192 {
		t.Fatalf("sets = %d, want 8192", a.Sets())
	}
	var b mem.Block
	allocs := testing.AllocsPerRun(100, func() {
		b += 4099
		if a.Lookup(b) != nil {
			t.Fatal("hit in an empty array")
		}
		if _, ok := a.Invalidate(b); ok {
			t.Fatal("invalidated a line of an empty array")
		}
		a.ForEach(func(mem.Block, *lineState) { t.Fatal("ForEach visited a line of an empty array") })
	})
	if allocs != 0 {
		t.Errorf("reads of an empty array allocate %v times per run, want 0", allocs)
	}
	const limit = 1 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a.Install(5)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("first install allocated %d bytes, want < %d", got, limit)
	}
}

// TestArrayLayout pins the layout the lookup path relies on: an Array
// is 128 bytes, a size class whose objects start on a 64-byte cache
// line, and the fields every lookup reads end within its first 64.
func TestArrayLayout(t *testing.T) {
	var a Array[lineState]
	if size := unsafe.Sizeof(a); size != 128 {
		t.Errorf("Array is %d bytes, want 128", size)
	}
	if end := unsafe.Offsetof(a.pow2) + unsafe.Sizeof(a.pow2); end > 64 {
		t.Errorf("lookup fields end at byte %d, want <= 64", end)
	}
}
