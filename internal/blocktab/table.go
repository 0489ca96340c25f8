// Package blocktab holds per-block state by value: Table maps a cache
// block to one value cell, and Queues keeps a FIFO of values per block.
// Both replace Go maps on the simulator's miss path, where a map
// operation and a heap object per touched block cost more than the
// protocol work itself.
//
// A Table is an open-addressed hash index (linear probing, Fibonacci
// hashing, backward-shift deletion) from block to a slot in a paged
// value slab. Workload addresses are sparse — regions sit about 2^28
// blocks apart and the touched blocks scatter inside each — so the
// index hashes instead of paging by address. The slab's first page is
// small and each later page doubles, so the many tiny tables (one per
// endpoint) stay tiny while a memory controller's store grows in
// O(log n) pages.
//
// A cell keeps its address until its block is deleted, so a caller may
// hold a *T across inserts of other blocks. The zero Table is empty and
// ready to use; it allocates on its first insert.
package blocktab

import (
	"math/bits"
	"slices"

	"tokencmp/internal/mem"
)

// firstPage is the slab's first page size; page k > 0 holds
// firstPage<<(k-1) cells, so slots [0, firstPage<<k) fill pages 0..k.
const (
	firstPageBits = 2
	firstPage     = 1 << firstPageBits
)

// minIndex is the index size allocated on the first insert.
const minIndex = 8

// Table maps blocks to values of type T held by value in a paged slab.
type Table[T any] struct {
	idx   []entry // open-addressed; len is a power of two, or zero
	shift uint    // 64 - log2(len(idx)), for Fibonacci hashing
	n     int     // live cells

	pages [][]T
	used  int32   // slots ever handed out (the slab's high-water mark)
	free  []int32 // deleted slots, reused first
}

// entry is one index cell: a block and its slab slot plus one (zero
// marks an empty cell).
type entry struct {
	b    mem.Block
	slot int32
}

// hash spreads b over the index: Fibonacci hashing keeps blocks that
// differ by regular strides apart.
func (t *Table[T]) hash(b mem.Block) int {
	return int((uint64(b) * 0x9E3779B97F4A7C15) >> t.shift)
}

// cell returns the value in slab slot s.
func (t *Table[T]) cell(s int32) *T {
	k := bits.Len32(uint32(s) >> firstPageBits)
	lo := (firstPage / 2 << k) &^ (firstPage - 1)
	return &t.pages[k][int(s)-lo]
}

// find returns b's index position and whether b is present; when b is
// absent the position is the empty cell that ends its probe.
func (t *Table[T]) find(b mem.Block) (int, bool) {
	mask := len(t.idx) - 1
	for i := t.hash(b); ; i = (i + 1) & mask {
		e := &t.idx[i]
		if e.slot == 0 {
			return i, false
		}
		if e.b == b {
			return i, true
		}
	}
}

// Len reports the number of blocks in the table.
func (t *Table[T]) Len() int { return t.n }

// Peek returns b's cell, or nil if b is absent. It never allocates.
func (t *Table[T]) Peek(b mem.Block) *T {
	if t.n == 0 {
		return nil
	}
	i, ok := t.find(b)
	if !ok {
		return nil
	}
	return t.cell(t.idx[i].slot - 1)
}

// At returns b's cell, inserting a zero value if b is absent.
func (t *Table[T]) At(b mem.Block) *T {
	v, _ := t.Insert(b)
	return v
}

// Insert returns b's cell and whether this call added it (with the zero
// value). A caller whose blocks start in a non-zero state initializes
// the cell when it is fresh: presence in the table is the
// "materialized" flag, so no value needs to be reserved as a sentinel.
func (t *Table[T]) Insert(b mem.Block) (v *T, fresh bool) {
	if (t.n+1)*4 > len(t.idx)*3 {
		t.grow()
	}
	i, ok := t.find(b)
	if ok {
		return t.cell(t.idx[i].slot - 1), false
	}
	s := t.alloc()
	t.idx[i] = entry{b: b, slot: s + 1}
	t.n++
	return t.cell(s), true
}

// alloc returns a free slab slot, adding a page when the slab is full.
func (t *Table[T]) alloc() int32 {
	if k := len(t.free); k > 0 {
		s := t.free[k-1]
		t.free = t.free[:k-1]
		return s
	}
	s := t.used
	if k := bits.Len32(uint32(s) >> firstPageBits); k == len(t.pages) {
		size := firstPage
		if k > 0 {
			size = firstPage << (k - 1)
		}
		t.pages = append(t.pages, make([]T, size))
	}
	t.used++
	return s
}

// grow doubles the index (or allocates the first one) and rehashes.
func (t *Table[T]) grow() {
	old := t.idx
	size := 2 * len(old)
	if size < minIndex {
		size = minIndex
	}
	t.idx = make([]entry, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, e := range old {
		if e.slot == 0 {
			continue
		}
		i := t.hash(e.b)
		for t.idx[i].slot != 0 {
			i = (i + 1) & mask
		}
		t.idx[i] = e
	}
}

// Delete removes b, zeroing its cell so the slab holds no stale
// references; a held *T for b is invalid afterwards. Deleting an absent
// block does nothing.
func (t *Table[T]) Delete(b mem.Block) {
	if t.n == 0 {
		return
	}
	i, ok := t.find(b)
	if !ok {
		return
	}
	s := t.idx[i].slot - 1
	var zero T
	*t.cell(s) = zero
	t.free = append(t.free, s)
	t.n--
	// Backward-shift deletion: pull each later entry of the probe run
	// into the hole unless that would move it before its home cell.
	mask := len(t.idx) - 1
	for j := (i + 1) & mask; t.idx[j].slot != 0; j = (j + 1) & mask {
		home := t.hash(t.idx[j].b)
		if (j-home)&mask >= (j-i)&mask {
			t.idx[i] = t.idx[j]
			i = j
		}
	}
	t.idx[i] = entry{}
}

// Each calls fn for every block in ascending block order, so audits
// visit blocks deterministically. fn may modify the table; a block it
// deletes before its turn is skipped. Each allocates the key list, so it
// is for audits, not for the miss path.
func (t *Table[T]) Each(fn func(b mem.Block, v *T)) {
	for _, b := range t.Blocks() {
		if v := t.Peek(b); v != nil {
			fn(b, v)
		}
	}
}

// Blocks lists the blocks in the table in ascending order.
func (t *Table[T]) Blocks() []mem.Block {
	out := make([]mem.Block, 0, t.n)
	for _, e := range t.idx {
		if e.slot != 0 {
			out = append(out, e.b)
		}
	}
	slices.Sort(out)
	return out
}
