package mc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// This file implements Ip & Dill scalarset-style symmetry reduction
// over the packed binary state keys. The caches of a model
// configuration are fully interchangeable (the paper's Section 5
// configurations have no per-cache asymmetry), so states differing
// only by a permutation of cache IDs are equivalent: exploring one
// canonical representative per orbit shrinks the reachable state space
// by up to Caches! and puts larger cache counts and message bounds
// within the checker's reach.
//
// A model opts in by describing where cache indices live inside its
// packed key (a Symmetry descriptor) instead of hand-writing a
// canonicalizer: per-cache record groups move wholesale under a
// permutation, reference bytes (message destinations, directory owner,
// arbiter queue entries) are renumbered, sharer bitmasks permute
// bitwise, and byte-sorted message-slot regions are re-sorted after
// renumbering.
//
// The canonical representative is found by labelling every cache with
// a permutation-equivariant label — its packed group records, then a
// signature of the references that name it — and placing the caches in
// ascending label order. Caches whose labels tie are the only freedom
// left: every arrangement of the tied caches is applied in full and the
// smallest resulting key is kept. Because the labels move with the
// caches, the candidate set, and so the representative, depends only on
// the orbit; it is not in general the orbit's lexicographically
// smallest key.
//
// Soundness requires the model's transition relation itself to be
// permutation-invariant: for every rule and permutation π,
// π(succ(s)) == succ(π(s)). A model whose rules order caches — the
// distributed-activation token model arbitrates persistent requests by
// lowest cache index — must return a nil descriptor and is explored
// unreduced.

// MaxSymmetryCaches bounds the cache counts the canonicalizer accepts.
// Orbit sizes are counted in units of Caches!, and canonicalizing a
// fully symmetric state degenerates to trying all Caches!
// permutations, so the reduction is enabled only for small
// configurations (which is where exhaustive checking lives anyway).
const MaxSymmetryCaches = 8

// RefEnc says how a byte encodes a cache reference.
type RefEnc uint8

const (
	// RefPlain bytes hold a cache index directly. Values >= Caches
	// (the memory holder, 0xFF slot padding) are fixed points.
	RefPlain RefEnc = iota
	// RefPlus1 bytes hold index+1, with 0 meaning "none" (-1 when
	// decoded). Values above Caches are fixed points.
	RefPlus1
)

// Ref locates one cache-reference byte: at a fixed key offset, or —
// inside a SlotRegion — at an offset within each record.
type Ref struct {
	Off int
	Enc RefEnc
}

// Group is a run of Caches fixed-width per-cache records starting at
// Off: record i belongs to cache i and moves to position π(i) under a
// permutation π.
type Group struct {
	Off, Stride int
}

// SlotRegion is a byte-sorted message-slot area: the count byte at
// CountOff gives the number of live W-byte records at Off, each
// possibly containing cache-reference bytes. Renumbering the
// references perturbs the records' sort order, so the live records are
// re-sorted after remapping (padding slots compare high and stay put).
type SlotRegion struct {
	CountOff int
	Off      int
	W        int
	Refs     []Ref
}

// Symmetry describes where cache indices live inside a model's packed
// key. The strides of all Groups together must not exceed 8 bytes (a
// cache's records are compared as one integer), and slot records are at
// most 8 bytes wide (SortSlots). Everything not covered by a Group,
// Ref, Mask, or SlotRegion ref byte must be permutation-invariant.
type Symmetry struct {
	Caches int
	Groups []Group
	Refs   []Ref        // fixed-position references (directory trailer, arbiter queue)
	Masks  []int        // offsets of little-endian uint32 bitmasks with bit q ↔ cache q
	Slots  []SlotRegion // byte-sorted message-slot regions
}

// factorial of n for n <= MaxSymmetryCaches.
func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

// Canonicalizer rewrites packed keys to their orbit's canonical
// representative. It holds per-instance scratch, so each checker
// worker needs its own (the checker pools them).
type Canonicalizer struct {
	sym  *Symmetry
	fact int // Caches!

	recs       []uint64 // recs[i] = cache i's group records, packed big-endian
	sigs       []uint64 // sigs[i] = signature of the references naming cache i
	order      []uint8  // order[j] = cache placed at position j
	pos        []uint8  // pos[i] = position of cache i (inverse of order)
	runs       []int    // [lo, hi) position pairs of the tie runs to enumerate
	cand, best []byte
	src        []byte // key being canonicalized while enumerating
	hits       int    // candidates that produced best
}

// NewCanonicalizer builds a canonicalizer for keys of the given width.
// It returns nil when the descriptor is nil or the configuration is
// outside the symmetry-reduction range.
func (s *Symmetry) NewCanonicalizer(width int) *Canonicalizer {
	if s == nil || s.Caches < 2 || s.Caches > MaxSymmetryCaches {
		return nil
	}
	stride := 0
	for _, g := range s.Groups {
		stride += g.Stride
	}
	if stride > 8 {
		panic(fmt.Sprintf("mc: symmetry groups span %d bytes per cache, more than 8", stride))
	}
	n := s.Caches
	return &Canonicalizer{
		sym:   s,
		fact:  factorial(n),
		recs:  make([]uint64, n),
		sigs:  make([]uint64, n),
		order: make([]uint8, n),
		pos:   make([]uint8, n),
		runs:  make([]int, 0, n),
		cand:  make([]byte, width),
		best:  make([]byte, width),
	}
}

// Canonicalize rewrites key in place to its orbit's canonical
// representative and returns the orbit size — the number of distinct
// keys the orbit contains (Caches! divided by the state's stabilizer),
// so summing it over discovered representatives reproduces the
// unreduced state count exactly.
//
// The caches are sorted by label (group records, then reference
// signature). Only runs of tied labels leave a choice. A tied run whose
// caches no reference names is interchangeable as it stands: its
// records are equal and nothing else mentions its members, so every
// arrangement yields the same key and contributes its run! to the
// stabilizer without being tried. The remaining tied runs are
// enumerated, each arrangement applied in full, and the smallest key
// kept. Every stabilizer element preserves labels, so the number of
// arrangements reaching that key is the rest of the stabilizer.
func (c *Canonicalizer) Canonicalize(key []byte) int {
	n := c.sym.Caches
	c.records(key)
	ord := c.order[:n]
	for i := range ord {
		ord[i] = uint8(i)
	}
	c.sort(ord)
	// Signatures only order caches whose records tie, so they are
	// computed for those caches alone (the rest keep signature 0).
	var tied uint32
	for j := 1; j < n; j++ {
		if c.recs[ord[j]] == c.recs[ord[j-1]] {
			tied |= 1<<ord[j] | 1<<ord[j-1]
		}
	}
	var refd uint32
	if tied != 0 {
		refd = c.signatures(key, tied)
		c.sort(ord)
	}
	c.runs = c.runs[:0]
	free := 1
	for lo := 0; lo < n; {
		a := ord[lo]
		members := uint32(1) << a
		hi := lo + 1
		for ; hi < n && c.recs[ord[hi]] == c.recs[a] && c.sigs[ord[hi]] == c.sigs[a]; hi++ {
			members |= 1 << ord[hi]
		}
		switch {
		case hi-lo == 1:
		case refd&members == 0:
			free *= factorial(hi - lo)
		default:
			c.runs = append(c.runs, lo, hi)
		}
		lo = hi
	}
	if len(c.runs) == 0 {
		if !isIdentity(ord) {
			c.apply(key, c.cand, c.invert(ord))
			copy(key, c.cand)
		}
		return c.fact / free
	}
	c.src = key
	c.hits = 0
	c.enumerate(0)
	c.src = nil
	copy(key, c.best)
	return c.fact / (free * c.hits)
}

// mix is the splitmix64 finalizer. Its constants are fixed, so the
// signatures, and with them the representatives, are the same in every
// run.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// Signature domains, so fixed references, mask bits and slot records
// that happen to share an index do not contribute the same term.
const (
	sigRef  = 0x9e3779b97f4a7c15
	sigMask = 0xc2b2ae3d27d4eb4f
	sigSlot = 0x165667b19e3779f9
)

// records fills recs: each cache's group records, concatenated in
// group order and packed into one integer.
func (c *Canonicalizer) records(key []byte) {
	s := c.sym
	for i := range c.recs {
		var r uint64
		for _, g := range s.Groups {
			r = packBE(r, key[g.Off+i*g.Stride:g.Off+(i+1)*g.Stride])
		}
		c.recs[i] = r
		c.sigs[i] = 0
	}
}

// signatures fills sigs for the caches in want and returns the subset
// of want that some reference names. A signature sums one term per
// reference naming the cache, so it does not depend on the order the
// references are visited in: a fixed reference contributes its index
// in Refs, a mask bit its mask's index, and a slot record a hash of
// its bytes with the live reference bytes cleared, salted by which of
// the record's references names the cache. Renaming the caches of a
// key therefore moves each cache's signature with it.
func (c *Canonicalizer) signatures(key []byte, want uint32) uint32 {
	s := c.sym
	n := s.Caches
	var refd uint32
	for k, r := range s.Refs {
		if q, ok := refCache(key[r.Off], r.Enc, n); ok && want&(1<<q) != 0 {
			c.sigs[q] += mix(sigRef + uint64(k))
			refd |= 1 << q
		}
	}
	for k, off := range s.Masks {
		low := binary.LittleEndian.Uint32(key[off:]) & want
		refd |= low
		for ; low != 0; low &= low - 1 {
			c.sigs[bits.TrailingZeros32(low)] += mix(sigMask + uint64(k))
		}
	}
	for k := range s.Slots {
		sl := &s.Slots[k]
		for m := 0; m < int(key[sl.CountOff]); m++ {
			rec := key[sl.Off+m*sl.W : sl.Off+(m+1)*sl.W]
			v := packBE(0, rec)
			var hit uint32
			for _, r := range sl.Refs {
				if q, ok := refCache(rec[r.Off], r.Enc, n); ok {
					v &^= 0xff << (8 * uint(sl.W-1-r.Off))
					hit |= 1 << q
				}
			}
			if hit&want == 0 {
				continue
			}
			refd |= hit & want
			h := mix(v + uint64(k)*sigSlot)
			for ri, r := range sl.Refs {
				if q, ok := refCache(rec[r.Off], r.Enc, n); ok && want&(1<<q) != 0 {
					c.sigs[q] += h + uint64(ri)*sigRef
				}
			}
		}
	}
	return refd
}

// sort orders ord by label (insertion sort: n is at most 8).
func (c *Canonicalizer) sort(ord []uint8) {
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0; j-- {
			a, b := ord[j-1], ord[j]
			if c.recs[a] < c.recs[b] || c.recs[a] == c.recs[b] && c.sigs[a] <= c.sigs[b] {
				break
			}
			ord[j-1], ord[j] = b, a
		}
	}
}

// packBE appends the bytes of b (at most 8 in all) to x, big-endian, so
// integer order on the result is byte order on the records.
func packBE(x uint64, b []byte) uint64 {
	for len(b) >= 4 {
		x = x<<32 | uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		x = x<<16 | uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		x = x<<8 | uint64(b[0])
	}
	return x
}

// isIdentity reports whether ord is 0..n-1 in order.
func isIdentity(ord []uint8) bool {
	for j, cache := range ord {
		if int(cache) != j {
			return false
		}
	}
	return true
}

// invert fills pos from ord.
func (c *Canonicalizer) invert(ord []uint8) []uint8 {
	pos := c.pos[:len(ord)]
	for j, cache := range ord {
		pos[cache] = uint8(j)
	}
	return pos
}

// enumerate walks every arrangement of the tie runs from run r on
// (the permutations within each c.runs-bounded range of c.order),
// trying each.
func (c *Canonicalizer) enumerate(r int) {
	if 2*r == len(c.runs) {
		c.try()
		return
	}
	c.permuteRange(c.runs[2*r], c.runs[2*r+1], r)
}

// permuteRange generates all orders of c.order[lo:hi] (one tie run),
// descending into the next run for each.
func (c *Canonicalizer) permuteRange(lo, hi, r int) {
	if lo >= hi {
		c.enumerate(r + 1)
		return
	}
	for i := lo; i < hi; i++ {
		c.order[lo], c.order[i] = c.order[i], c.order[lo]
		c.permuteRange(lo+1, hi, r)
		c.order[lo], c.order[i] = c.order[i], c.order[lo]
	}
}

// try applies the current candidate order and folds it into best.
func (c *Canonicalizer) try() {
	c.apply(c.src, c.cand, c.invert(c.order[:c.sym.Caches]))
	d := -1
	if c.hits > 0 {
		d = bytes.Compare(c.cand, c.best)
	}
	switch d {
	case -1:
		c.cand, c.best = c.best, c.cand
		c.hits = 1
	case 0:
		c.hits++
	}
}

// refCache decodes a reference byte, reporting whether it names a cache
// (a non-fixed point of the permutation action) and which.
func refCache(b byte, enc RefEnc, n int) (int, bool) {
	switch enc {
	case RefPlain:
		return int(b), int(b) < n
	case RefPlus1:
		return int(b) - 1, b >= 1 && int(b) <= n
	}
	return 0, false
}

// remapRef renumbers one reference byte under pos.
func remapRef(b byte, enc RefEnc, pos []uint8, n int) byte {
	if q, ok := refCache(b, enc, n); ok {
		return b - byte(q) + pos[q]
	}
	return b
}

// apply writes π(src) into dst: group records move to their new
// positions, reference bytes and mask bits are renumbered, and slot
// regions are re-sorted so the result is a valid canonical encoding.
func (c *Canonicalizer) apply(src, dst []byte, pos []uint8) {
	s := c.sym
	n := s.Caches
	copy(dst, src)
	for _, g := range s.Groups {
		for i := 0; i < n; i++ {
			copy(dst[g.Off+int(pos[i])*g.Stride:g.Off+(int(pos[i])+1)*g.Stride],
				src[g.Off+i*g.Stride:])
		}
	}
	for _, r := range s.Refs {
		dst[r.Off] = remapRef(src[r.Off], r.Enc, pos, n)
	}
	for _, off := range s.Masks {
		v := binary.LittleEndian.Uint32(src[off:])
		var w uint32
		for low := v & (1<<uint(n) - 1); low != 0; low &= low - 1 {
			w |= 1 << pos[bits.TrailingZeros32(low)]
		}
		binary.LittleEndian.PutUint32(dst[off:], v&^(1<<uint(n)-1)|w)
	}
	for _, sl := range s.Slots {
		cnt := int(src[sl.CountOff])
		for k := 0; k < cnt; k++ {
			base := sl.Off + k*sl.W
			for _, r := range sl.Refs {
				dst[base+r.Off] = remapRef(dst[base+r.Off], r.Enc, pos, n)
			}
		}
		SortSlots(dst[sl.Off:], cnt, sl.W)
	}
}

// SortSlots canonicalizes the n leading w-byte records of b (w <= 8)
// into ascending lexicographic byte order, so states differing only by
// message permutation collapse to one key. Models call it while
// packing; the canonicalizer calls it again after renumbering slot
// reference bytes. It is an insertion sort on the records read as
// big-endian integers, in place: exact and allocation-free at the
// message counts the models bound.
func SortSlots(b []byte, n, w int) {
	if n < 2 {
		return
	}
	last := packBE(0, b[:w]) // the largest record so far, now at i-1
	for i := 1; i < n; i++ {
		v := packBE(0, b[i*w:(i+1)*w])
		if v >= last {
			last = v
			continue
		}
		j := i - 1
		for j > 0 && packBE(0, b[(j-1)*w:j*w]) > v {
			j--
		}
		copy(b[(j+1)*w:(i+1)*w], b[j*w:i*w])
		for k := w - 1; k >= 0; k-- {
			b[j*w+k] = byte(v)
			v >>= 8
		}
	}
}
