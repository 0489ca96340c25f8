package cache

import (
	"fmt"
	"testing"

	"tokencmp/internal/mem"
)

// eagerArray is the array before paging and before the tag store: every
// set allocated up front as its own slice of lines that carry their own
// valid bit. FuzzArray runs it as the reference for Array.
type eagerArray[S any] struct {
	sets, ways int
	lines      [][]refLine[S]
	tick       uint64
}

// refLine is the reference's line, with an explicit valid bit in place of
// Array's tag store.
type refLine[S any] struct {
	Block mem.Block
	Valid bool
	State S

	lru uint64
}

func newEager[S any](p Params) *eagerArray[S] {
	sets := p.Sets()
	a := &eagerArray[S]{sets: sets, ways: p.Ways}
	a.lines = make([][]refLine[S], sets)
	backing := make([]refLine[S], sets*p.Ways)
	for i := range a.lines {
		a.lines[i], backing = backing[:p.Ways], backing[p.Ways:]
	}
	return a
}

func (a *eagerArray[S]) set(b mem.Block) []refLine[S] {
	return a.lines[uint64(b)%uint64(a.sets)]
}

func (a *eagerArray[S]) Lookup(b mem.Block) *refLine[S] {
	set := a.set(b)
	for i := range set {
		if set[i].Valid && set[i].Block == b {
			return &set[i]
		}
	}
	return nil
}

func (a *eagerArray[S]) TouchLine(l *refLine[S]) {
	a.tick++
	l.lru = a.tick
}

func (a *eagerArray[S]) Install(b mem.Block) (line *refLine[S], evicted mem.Block, victimState S, wasEvicted bool) {
	var zero S
	set := a.set(b)
	var victim *refLine[S]
	for i := range set {
		l := &set[i]
		if !l.Valid {
			if victim == nil || victim.Valid {
				victim = l
			}
			continue
		}
		if l.Block == b {
			a.TouchLine(l)
			return l, 0, zero, false
		}
		if victim == nil || (victim.Valid && l.lru < victim.lru) {
			victim = l
		}
	}
	if victim.Valid {
		evicted, victimState, wasEvicted = victim.Block, victim.State, true
	}
	victim.Block = b
	victim.Valid = true
	victim.State = zero
	a.tick++
	victim.lru = a.tick
	return victim, evicted, victimState, wasEvicted
}

func (a *eagerArray[S]) InstallAvoiding(b mem.Block, avoid func(st *S) bool) (line *refLine[S], evicted mem.Block, victimState S, wasEvicted, ok bool) {
	var zero S
	set := a.set(b)
	var victim *refLine[S]
	for i := range set {
		l := &set[i]
		if !l.Valid {
			if victim == nil || victim.Valid {
				victim = l
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

func (a *eagerArray[S]) Invalidate(b mem.Block) (S, bool) {
	var zero S
	if l := a.Lookup(b); l != nil {
		st := l.State
		l.Valid = false
		l.State = zero
		return st, true
	}
	return zero, false
}

func (a *eagerArray[S]) ForEach(fn func(b mem.Block, s *S)) {
	for si := range a.lines {
		for wi := range a.lines[si] {
			l := &a.lines[si][wi]
			if l.Valid {
				fn(l.Block, &l.State)
			}
		}
	}
}

// fuzzGeoms are (sets, ways) shapes with set counts below, equal to,
// and not a multiple of groupSets, so a partial last group is covered.
// The 1000-set shape spans 16 groups and, filled, every doubling slab
// page up to the capped last one (slots 512-999), and its set count
// takes the % set index.
var fuzzGeoms = [][2]int{{1, 4}, {7, 2}, {groupSets, 4}, {groupSets + 36, 2}, {2*groupSets + 1, 1}, {1000, 4}}

// fillStep is the number of installs that precede the operations per
// unit of the input's first byte above the geometry choice.
const fillStep = 25

// maxFuzzOps caps an input's length so each execution, and the
// minimization of each new input, stays fast.
const maxFuzzOps = 128

// FuzzArray drives Array and the eager reference with the same sequence
// of Install, InstallAvoiding, Lookup, TouchLine and Invalidate
// calls and requires identical results, the same ForEach sequence after
// every step, and a *Line that stays put while its block is resident.
// The input's first byte picks a geometry (byte % len(fuzzGeoms)) and a
// fill: byte / len(fuzzGeoms) * fillStep installs of blocks that stride
// through the sets in scrambled order, so one input can allocate sets
// in every slab page of the largest geometry. Each following
// 4-byte record is (op, block hi, block lo, arg), where arg is the state
// stored into an installed line and, for InstallAvoiding, the mask of
// the avoid predicate (0 passes nil).
func FuzzArray(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 0, 0, 2, 2, 1, 0, 0, 3})
	f.Add([]byte{2, 1, 0, 0, 1, 1, 0, 64, 1, 0, 0, 0, 0, 1, 0, 128, 0, 5, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1+4*maxFuzzOps {
			return
		}
		g := fuzzGeoms[int(data[0])%len(fuzzGeoms)]
		p := Params{SizeBytes: g[0] * g[1] * mem.BlockSize, Ways: g[1], BlockSize: mem.BlockSize}
		got, want := New[lineState](p), newEager[lineState](p)
		if got.Sets() != g[0] || got.Ways() != g[1] {
			t.Fatalf("geometry %dx%d, want %dx%d", got.Sets(), got.Ways(), g[0], g[1])
		}
		// Blocks span three times the capacity so sets fill and evict.
		span := 3 * g[0] * g[1]
		where := map[mem.Block]*Line[lineState]{}
		var seen []visit
		// Fill installs are steps -1, -2, ...; the check after them is
		// the step past the last.
		fill := int(data[0]) / len(fuzzGeoms) * fillStep
		for i := range fill {
			b := mem.Block(i * 7919 % span)
			gl, ge, gs, gw := got.Install(b)
			wl, we, ws, ww := want.Install(b)
			step := fuzzStep{-1 - i, 0, b, 0}
			if ge != we || gs != ws || gw != ww {
				t.Fatalf("%s: fill install = (%v %v %v), want (%v %v %v)", step, ge, gs, gw, we, ws, ww)
			}
			checkLine(t, step, gl, wl)
			where[b] = gl
		}
		seen = checkContents(t, fuzzStep{-1 - fill, 0, 0, 0}, got, want, seen)
		for i, ops := 0, data[1:]; len(ops) >= 4; i, ops = i+1, ops[4:] {
			op, arg := int(ops[0]%6), int(ops[3])
			b := mem.Block((int(ops[1])<<8 | int(ops[2])) % span)
			step := fuzzStep{i, op, b, arg}
			switch op {
			case 0, 1:
				var gl *Line[lineState]
				var wl *refLine[lineState]
				var ge, we mem.Block
				resident := want.Lookup(b) != nil
				var gs, ws lineState
				var gw, ww bool
				gok, wok := true, true
				if op == 0 {
					gl, ge, gs, gw = got.Install(b)
					wl, we, ws, ww = want.Install(b)
				} else {
					var avoid func(st *lineState) bool
					if arg != 0 {
						avoid = func(st *lineState) bool { return st.v&arg != 0 }
					}
					gl, ge, gs, gw, gok = got.InstallAvoiding(b, avoid)
					wl, we, ws, ww, wok = want.InstallAvoiding(b, avoid)
				}
				if gok != wok || ge != we || gs != ws || gw != ww {
					t.Fatalf("%s: install = (%v %v %v %v), want (%v %v %v %v)", step, ge, gs, gw, gok, we, ws, ww, wok)
				}
				checkLine(t, step, gl, wl)
				if gl != nil {
					if resident && where[b] != gl {
						t.Fatalf("%s: resident block moved lines", step)
					}
					where[b] = gl
					gl.State.v, wl.State.v = arg, arg
				}
			case 2:
				gl, wl := got.Lookup(b), want.Lookup(b)
				checkLine(t, step, gl, wl)
				if gl != nil && where[b] != gl {
					t.Fatalf("%s: lookup returned a different *Line than install", step)
				}
			case 3, 4:
				gl, wl := got.Lookup(b), want.Lookup(b)
				checkLine(t, step, gl, wl)
				if gl != nil {
					got.TouchLine(gl)
					want.TouchLine(wl)
				}
			case 5:
				gs, gok := got.Invalidate(b)
				ws, wok := want.Invalidate(b)
				if gs != ws || gok != wok {
					t.Fatalf("%s: invalidate = (%v %v), want (%v %v)", step, gs, gok, ws, wok)
				}
			}
			seen = checkContents(t, step, got, want, seen)
		}
	})
}

// fuzzStep names one step in a failure message.
type fuzzStep struct {
	i, op int
	b     mem.Block
	arg   int
}

func (s fuzzStep) String() string {
	return fmt.Sprintf("step %d op %d block %d arg %d", s.i, s.op, s.b, s.arg)
}

func checkLine(t *testing.T, step fuzzStep, got *Line[lineState], want *refLine[lineState]) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: line = %v, want %v", step, got, want)
	}
	if got != nil && (!want.Valid || got.Block != want.Block || got.State != want.State || got.lru != want.lru) {
		t.Fatalf("%s: line = %+v, want %+v", step, *got, *want)
	}
}

type visit struct {
	b mem.Block
	s lineState
}

// checkContents compares the two arrays' ForEach sequences, collecting
// got's lines into seen, which it returns for reuse.
func checkContents(t *testing.T, step fuzzStep, got *Array[lineState], want *eagerArray[lineState], seen []visit) []visit {
	t.Helper()
	seen = seen[:0]
	got.ForEach(func(b mem.Block, s *lineState) { seen = append(seen, visit{b, *s}) })
	n := 0
	want.ForEach(func(b mem.Block, s *lineState) {
		if n >= len(seen) || seen[n] != (visit{b, *s}) {
			t.Fatalf("%s: ForEach visit %d of %v, want %v", step, n, seen, visit{b, *s})
		}
		n++
	})
	if n != len(seen) {
		t.Fatalf("%s: ForEach visited %d lines, want %d", step, len(seen), n)
	}
	return seen
}
