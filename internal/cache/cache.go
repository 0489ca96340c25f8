// Package cache provides a generic set-associative cache array with
// true-LRU replacement. Protocol controllers embed their per-line
// coherence state as the type parameter, so the same array implements
// MOESI L1s, token-counting L1s, and banked L2s.
package cache

import (
	"tokencmp/internal/mem"
)

// Line couples a block tag with protocol state.
type Line[S any] struct {
	Block mem.Block
	Valid bool
	State S

	lru uint64
}

// Array is a set-associative cache with true-LRU replacement. Its sets
// are stored in pages of pageSets consecutive sets, each page one flat
// slice. A page is allocated on the first install into it, so a Table 3
// L2 bank that a run touches in a few hundred blocks never zeroes its
// other 32k lines. Pages never move, so a returned *Line stays valid.
type Array[S any] struct {
	sets, ways int
	pages      [][]Line[S]
	tick       uint64
}

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
	return &Array[S]{sets: sets, ways: p.Ways, pages: make([][]Line[S], (sets+pageSets-1)/pageSets)}
}

// Sets reports the number of sets.
func (a *Array[S]) Sets() int { return a.sets }

// Ways reports the associativity.
func (a *Array[S]) Ways() int { return a.ways }

// set returns b's set, or nil if its page is absent. With alloc set it
// first allocates an absent page; the last page holds only the sets
// that remain.
func (a *Array[S]) set(b mem.Block, alloc bool) []Line[S] {
	s := int(uint64(b) % uint64(a.sets))
	pg := &a.pages[s/pageSets]
	if *pg == nil {
		if !alloc {
			return nil
		}
		*pg = make([]Line[S], min(pageSets, a.sets-s/pageSets*pageSets)*a.ways)
	}
	i := s % pageSets * a.ways
	return (*pg)[i : i+a.ways]
}

// Lookup returns the line holding b, or nil. It does not touch LRU state;
// call Touch on a hit that should refresh recency.
func (a *Array[S]) Lookup(b mem.Block) *Line[S] {
	set := a.set(b, false)
	for i := range set {
		if set[i].Valid && set[i].Block == b {
			return &set[i]
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
	set := a.set(b, true)
	// One scan finds the hit line, the first invalid way, and the LRU
	// victim together.
	var victim *Line[S]
	for i := range set {
		l := &set[i]
		if !l.Valid {
			if victim == nil || victim.Valid {
				victim = l // first invalid way wins over any LRU choice
			}
			continue
		}
		if l.Block == b {
			a.TouchLine(l)
			return l, 0, zero, false, true
		}
		if avoid != nil && avoid(&l.State) {
			continue
		}
		if victim == nil || (victim.Valid && l.lru < victim.lru) {
			victim = l
		}
	}
	if victim == nil {
		return nil, 0, zero, false, false
	}
	if victim.Valid {
		evicted, victimState, wasEvicted = victim.Block, victim.State, true
	}
	victim.Block = b
	victim.Valid = true
	victim.State = zero
	a.tick++
	victim.lru = a.tick
	return victim, evicted, victimState, wasEvicted, true
}

// Invalidate drops b if present, returning its former state.
func (a *Array[S]) Invalidate(b mem.Block) (S, bool) {
	var zero S
	if l := a.Lookup(b); l != nil {
		st := l.State
		l.Valid = false
		l.State = zero
		return st, true
	}
	return zero, false
}

// ForEach visits every valid line in set order, skipping absent pages.
func (a *Array[S]) ForEach(fn func(b mem.Block, s *S)) {
	for _, pg := range a.pages {
		for i := range pg {
			if l := &pg[i]; l.Valid {
				fn(l.Block, &l.State)
			}
		}
	}
}

// Count reports the number of valid lines.
func (a *Array[S]) Count() int {
	n := 0
	a.ForEach(func(mem.Block, *S) { n++ })
	return n
}
