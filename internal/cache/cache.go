// Package cache provides a generic set-associative cache array with
// true-LRU replacement. Protocol controllers embed their per-line
// coherence state as the type parameter, so the same array implements
// MOESI L1s, token-counting L1s, and banked L2s.
package cache

import (
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

// Array is a set-associative cache with true-LRU replacement. Its sets
// are stored in pages of pageSets consecutive sets. A page is allocated
// on the first install into it, so a Table 3 L2 bank that a run touches
// in a few hundred blocks never zeroes its other 32k lines. Pages never
// move, so a returned *Line stays valid.
type Array[S any] struct {
	sets, ways int
	mask       uint64 // sets-1; a set index when pow2
	pow2       bool   // sets is a power of two
	pages      []page[S]
	tick       uint64
}

// page holds pageSets sets (the last page only the sets that remain).
// tags is the page's tag store, one word per way: tagOf(block) for a
// valid line, 0 for an invalid one. It sits apart from lines, so a
// lookup that misses a 4-way set reads 32 contiguous bytes instead of
// every line of the set.
type page[S any] struct {
	tags  []uint64
	lines []Line[S]
}

// tagOf is b's tag-store word. Block numbers are addresses shifted by
// mem.BlockBits, so b+1 never wraps to the invalid tag 0.
func tagOf(b mem.Block) uint64 { return uint64(b) + 1 }

// pageSets is the number of sets one page holds.
const pageSets = 64

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

// New builds an array with the given geometry.
func New[S any](p Params) *Array[S] {
	sets := p.Sets()
	return &Array[S]{
		sets:  sets,
		ways:  p.Ways,
		mask:  uint64(sets - 1),
		pow2:  sets&(sets-1) == 0,
		pages: make([]page[S], (sets+pageSets-1)/pageSets),
	}
}

// Sets reports the number of sets.
func (a *Array[S]) Sets() int { return a.sets }

// Ways reports the associativity.
func (a *Array[S]) Ways() int { return a.ways }

// setOf returns b's set index. Every Table 3 and scaled size has a
// power-of-two set count, which masks instead of dividing.
func (a *Array[S]) setOf(b mem.Block) uint64 {
	if a.pow2 {
		return uint64(b) & a.mask
	}
	return uint64(b) % uint64(a.sets)
}

// slot returns b's page and the offset of b's set in it.
func (a *Array[S]) slot(b mem.Block) (*page[S], int) {
	s := a.setOf(b)
	return &a.pages[s/pageSets], int(s%pageSets) * a.ways
}

// Lookup returns the line holding b, or nil. It does not touch LRU state;
// call Touch on a hit that should refresh recency.
func (a *Array[S]) Lookup(b mem.Block) *Line[S] {
	pg, i := a.slot(b)
	if pg.tags == nil {
		return nil
	}
	t := tagOf(b)
	for w, tag := range pg.tags[i : i+a.ways] {
		if tag == t {
			return &pg.lines[i+w]
		}
	}
	return nil
}

// Touch marks b most recently used.
func (a *Array[S]) Touch(b mem.Block) {
	if l := a.Lookup(b); l != nil {
		a.TouchLine(l)
	}
}

// TouchLine marks an already-found line most recently used, skipping
// Touch's set rescan.
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
	s := a.setOf(b)
	pg := &a.pages[s/pageSets]
	if pg.tags == nil {
		n := min(pageSets, a.sets-int(s/pageSets)*pageSets) * a.ways
		pg.tags, pg.lines = make([]uint64, n), make([]Line[S], n)
	}
	i := int(s%pageSets) * a.ways
	tags, set := pg.tags[i:i+a.ways], pg.lines[i:i+a.ways]
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
	pg, i := a.slot(b)
	if pg.tags == nil {
		return zero, false
	}
	t := tagOf(b)
	for w := i; w < i+a.ways; w++ {
		if pg.tags[w] == t {
			st := pg.lines[w].State
			pg.tags[w] = 0
			pg.lines[w].State = zero
			return st, true
		}
	}
	return zero, false
}

// ForEach visits every valid line in set order, skipping absent pages.
func (a *Array[S]) ForEach(fn func(b mem.Block, s *S)) {
	for _, pg := range a.pages {
		for i, tag := range pg.tags {
			if tag != 0 {
				fn(pg.lines[i].Block, &pg.lines[i].State)
			}
		}
	}
}
