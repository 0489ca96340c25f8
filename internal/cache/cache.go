// Package cache provides a generic set-associative cache array with
// true-LRU replacement. Protocol controllers embed their per-line
// coherence state as the type parameter, so the same array implements
// MOESI L1s, token-counting L1s, and banked L2s.
//
// An array allocates a set's lines on the first install into that set.
// A directory of 64-set groups maps each touched set to a place in a
// slab of pages that double in size, so a Table 3 L2 bank that a run
// touches in a few hundred blocks holds a few hundred sets, not 8192.
package cache

import (
	"math/bits"

	"tokencmp/internal/mem"
)

// Line couples a block tag with protocol state. A line is valid while
// its array's tag store holds its block; Block keeps the last block
// installed in it either way.
type Line[S any] struct {
	Block mem.Block
	State S

	lru uint64
}

// Array is a set-associative cache with true-LRU replacement. Sets are
// allocated one at a time, on the first install into each: dir maps a
// set to its place in a slab of pages that hold whole sets. Pages never
// move, so a returned *Line stays valid.
type Array[S any] struct {
	// Every lookup reads the fields up to pow2. They fill the first 64
	// bytes, and the padding puts Array in a 128-byte size class, whose
	// objects start on a cache line, so a lookup touches one line here.
	dir   []*[groupSets]uint32
	pages []page[S]
	mask  uint64 // sets-1; a set index when pow2
	ways  int32
	pow2  bool // sets is a power of two

	sets int
	used int // sets allocated; the next one takes slab slot used
	tick uint64
	_    [40]byte
}

// groupSets is the number of sets one directory group maps. A group is
// allocated on the first install into any of its sets.
const groupSets = 64

// A directory entry locates an allocated set: entryPresent, its slab
// page from bit pageShift up, and below that the offset of the set's
// first line in the page. The zero entry marks an absent set. So an
// array holds at most 1<<pageShift lines.
const (
	pageShift    = 26
	pageMask     = 1<<(31-pageShift) - 1
	offsetMask   = 1<<pageShift - 1
	entryPresent = 1 << 31
)

// firstPage is the slab's first page size in sets; page k > 0 holds
// firstPage<<(k-1) sets, so slots [0, firstPage<<k) fill pages 0..k.
// The last page holds only the sets that remain, so a dense array's
// slab is exactly its sets.
const (
	firstPageBits = 2
	firstPage     = 1 << firstPageBits
)

// page holds consecutive slab slots, each one set of ways lines. tags
// is the page's tag store, one word per way: tagOf(block) for a valid
// line, 0 for an invalid one. It sits apart from lines, so a lookup
// that misses a 4-way set reads 32 contiguous bytes instead of every
// line of the set.
type page[S any] struct {
	tags  []uint64
	lines []Line[S]
}

// tagOf is b's tag-store word. Block numbers are addresses shifted by
// mem.BlockBits, so b+1 never wraps to the invalid tag 0.
func tagOf(b mem.Block) uint64 { return uint64(b) + 1 }

// Params sizes an array.
type Params struct {
	SizeBytes int
	Ways      int
	BlockSize int
}

// Sets computes the number of sets implied by the parameters.
func (p Params) Sets() int {
	s := p.SizeBytes / (p.Ways * p.BlockSize)
	if s < 1 {
		s = 1
	}
	return s
}

// New builds an array with the given geometry. It panics if the array
// would hold more than 1<<pageShift lines.
func New[S any](p Params) *Array[S] {
	sets := p.Sets()
	if sets*p.Ways > 1<<pageShift {
		panic("cache: more than 1<<26 lines in one array")
	}
	return &Array[S]{
		sets: sets,
		ways: int32(p.Ways),
		mask: uint64(sets - 1),
		pow2: sets&(sets-1) == 0,
		dir:  make([]*[groupSets]uint32, (sets+groupSets-1)/groupSets),
	}
}

// Sets reports the number of sets.
func (a *Array[S]) Sets() int { return a.sets }

// Ways reports the associativity.
func (a *Array[S]) Ways() int { return int(a.ways) }

// setOf returns b's set index. Every Table 3 and scaled size has a
// power-of-two set count, which masks instead of dividing.
func (a *Array[S]) setOf(b mem.Block) uint64 {
	if a.pow2 {
		return uint64(b) & a.mask
	}
	return uint64(b) % uint64(a.sets)
}

// entry returns the directory entry of b's set, 0 if the set was never
// installed into.
func (a *Array[S]) entry(b mem.Block) uint32 {
	s := a.setOf(b)
	g := a.dir[s/groupSets]
	if g == nil {
		return 0
	}
	return g[s%groupSets]
}

// place returns the page and first-line offset that entry e locates.
func (a *Array[S]) place(e uint32) (*page[S], int) {
	return &a.pages[e>>pageShift&pageMask], int(e & offsetMask)
}

// alloc gives set s the next slab slot, adding a page when the slab is
// full, and returns s's new directory entry.
func (a *Array[S]) alloc(s uint64) uint32 {
	g := a.dir[s/groupSets]
	if g == nil {
		g = new([groupSets]uint32)
		a.dir[s/groupSets] = g
	}
	slot := a.used
	a.used++
	k := bits.Len32(uint32(slot) >> firstPageBits)
	lo := (firstPage / 2 << k) &^ (firstPage - 1) // page k's first slot
	if k == len(a.pages) {
		// slot opens page k, which stops at the array's last set.
		n := min(firstPage<<k-lo, a.sets-slot) * int(a.ways)
		a.pages = append(a.pages, page[S]{make([]uint64, n), make([]Line[S], n)})
	}
	e := entryPresent | uint32(k)<<pageShift | uint32((slot-lo)*int(a.ways))
	g[s%groupSets] = e
	return e
}

// Lookup returns the line holding b, or nil. It does not touch LRU state;
// call TouchLine on a hit that should refresh recency.
func (a *Array[S]) Lookup(b mem.Block) *Line[S] {
	e := a.entry(b)
	if e == 0 {
		return nil
	}
	pg, i := a.place(e)
	t := tagOf(b)
	for w, tag := range pg.tags[i : i+int(a.ways)] {
		if tag == t {
			return &pg.lines[i+w]
		}
	}
	return nil
}

// TouchLine marks a line Lookup found most recently used.
func (a *Array[S]) TouchLine(l *Line[S]) {
	a.tick++
	l.lru = a.tick
}

// Install claims a line for b, displacing an invalid way if one exists,
// otherwise the LRU line of b's set. It returns the new line plus, if a
// live line was displaced, its block and former state so the caller can
// write it back. The new line's State is the zero value.
func (a *Array[S]) Install(b mem.Block) (line *Line[S], evicted mem.Block, victimState S, wasEvicted bool) {
	line, evicted, victimState, wasEvicted, _ = a.InstallAvoiding(b, nil)
	return line, evicted, victimState, wasEvicted
}

// InstallAvoiding is Install with a victim predicate: lines for which
// avoid returns true (e.g. lines pinned by an in-flight transaction) are
// never displaced. It reports ok=false, installing nothing, if every way
// of b's set is unavailable.
func (a *Array[S]) InstallAvoiding(b mem.Block, avoid func(st *S) bool) (line *Line[S], evicted mem.Block, victimState S, wasEvicted, ok bool) {
	var zero S
	e := a.entry(b)
	if e == 0 {
		e = a.alloc(a.setOf(b))
	}
	pg, i := a.place(e)
	tags, set := pg.tags[i:i+int(a.ways)], pg.lines[i:i+int(a.ways)]
	// One scan finds the hit way, the first invalid way, and the LRU
	// victim together.
	t := tagOf(b)
	victim := -1
	for w, tag := range tags {
		if tag == 0 {
			if victim < 0 || tags[victim] != 0 {
				victim = w // first invalid way wins over any LRU choice
			}
			continue
		}
		if tag == t {
			a.TouchLine(&set[w])
			return &set[w], 0, zero, false, true
		}
		if avoid != nil && avoid(&set[w].State) {
			continue
		}
		if victim < 0 || (tags[victim] != 0 && set[w].lru < set[victim].lru) {
			victim = w
		}
	}
	if victim < 0 {
		return nil, 0, zero, false, false
	}
	l := &set[victim]
	if tags[victim] != 0 {
		evicted, victimState, wasEvicted = l.Block, l.State, true
	}
	tags[victim] = t
	l.Block = b
	l.State = zero
	a.tick++
	l.lru = a.tick
	return l, evicted, victimState, wasEvicted, true
}

// Invalidate drops b if present, returning its former state.
func (a *Array[S]) Invalidate(b mem.Block) (S, bool) {
	var zero S
	e := a.entry(b)
	if e == 0 {
		return zero, false
	}
	pg, i := a.place(e)
	t := tagOf(b)
	for w := i; w < i+int(a.ways); w++ {
		if pg.tags[w] == t {
			st := pg.lines[w].State
			pg.tags[w] = 0
			pg.lines[w].State = zero
			return st, true
		}
	}
	return zero, false
}

// ForEach visits every valid line in set order, skipping absent sets.
func (a *Array[S]) ForEach(fn func(b mem.Block, s *S)) {
	for _, g := range a.dir {
		if g == nil {
			continue
		}
		for _, e := range g {
			if e == 0 {
				continue
			}
			pg, i := a.place(e)
			for w, tag := range pg.tags[i : i+int(a.ways)] {
				if tag != 0 {
					fn(pg.lines[i+w].Block, &pg.lines[i+w].State)
				}
			}
		}
	}
}
