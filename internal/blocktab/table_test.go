package blocktab

import (
	"math/rand"
	"testing"

	"tokencmp/internal/mem"
)

// TestTableMatchesMap drives a table through thousands of sparse
// inserts and deletes, enough to grow the index and slab many times.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab Table[uint64]
	ref := map[mem.Block]uint64{}
	held := map[mem.Block]*uint64{}
	for i := 0; i < 20000; i++ {
		b := mem.Block(uint64(rng.Intn(4))<<28 | uint64(rng.Intn(4096)))
		if rng.Intn(3) == 0 {
			tab.Delete(b)
			delete(ref, b)
			delete(held, b)
			continue
		}
		p := tab.At(b)
		*p++
		ref[b]++
		held[b] = p
	}
	if tab.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(ref))
	}
	for b, want := range ref {
		if p := tab.Peek(b); p == nil || *p != want || p != held[b] {
			t.Fatalf("Peek(%v) = %v, want %d at the held cell", b, p, want)
		}
	}
	prev, n := mem.Block(0), 0
	tab.Each(func(b mem.Block, _ *uint64) {
		if n > 0 && b <= prev {
			t.Fatalf("Each visited %v after %v", b, prev)
		}
		prev = b
		n++
	})
	if n != len(ref) {
		t.Fatalf("Each visited %d blocks, want %d", n, len(ref))
	}
}

// TestSmallTableStaysSmall pins the first slab page: a table holding a
// handful of blocks must not allocate a large page.
func TestSmallTableStaysSmall(t *testing.T) {
	var tab Table[[64]byte]
	tab.At(1)
	if len(tab.pages) != 1 || len(tab.pages[0]) != firstPage {
		t.Fatalf("one block made pages of %d cells, want one page of %d", len(tab.pages[0]), firstPage)
	}
}

// TestSteadyStateDoesNotAllocate pins the point of the table: once a
// table has grown, inserting and deleting blocks allocates nothing.
func TestSteadyStateDoesNotAllocate(t *testing.T) {
	var tab Table[uint64]
	var qs Queues[uint64]
	for b := mem.Block(0); b < 64; b++ {
		tab.At(b << 20)
		qs.Push(b, 1)
	}
	for b := mem.Block(0); b < 64; b++ {
		tab.Delete(b << 20)
		qs.Pop(b)
	}
	b := mem.Block(0)
	allocs := testing.AllocsPerRun(1000, func() {
		b = (b + 1) % 64
		*tab.At(b<<20 | 7) = 1
		tab.Delete(b<<20 | 7)
		qs.Push(b, 2)
		qs.Push(b, 3)
		qs.Remove(b, func(v *uint64) bool { return *v == 3 })
		qs.Pop(b)
	})
	if allocs != 0 {
		t.Errorf("steady-state table and queue operations allocated %.1f times per run, want 0", allocs)
	}
}
