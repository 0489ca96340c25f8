// Package perfectl2 implements the paper's unimplementable lower bound:
// every L1 miss hits in an infinite, instantly-coherent L2 cache shared
// across all CMPs (Section 6). No coherence traffic exists; an access
// costs the L1 latency, plus the on-chip round trip and L2 access when it
// leaves the L1.
package perfectl2

import (
	"tokencmp/internal/blocktab"
	"tokencmp/internal/counters"
	"tokencmp/internal/cpu"
	"tokencmp/internal/hier"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
)

// System is the magic shared-L2 machine.
type System struct {
	Eng *sim.Engine

	// missLat is what leaving the L1 adds: the on-chip round trip and
	// the L2 access.
	missLat sim.Time

	// blocks is the globally coherent store: each block's value and its
	// invalidation epoch.
	blocks blocktab.Table[block]

	ports []*port

	Ctrs            *counters.Set
	ctrHit, ctrMiss *counters.Counter
}

// block is one block of the shared store. epoch counts the writes that
// invalidated other L1 copies.
type block struct {
	value, epoch uint64
}

// NewSystem builds a PerfectL2 machine. Only the geometry of h matters:
// the shared L2 is infinite and the L1s never evict.
func NewSystem(eng *sim.Engine, h hier.Config) *System {
	s := &System{
		Eng:     eng,
		missLat: 2*network.Default().OnChip.Latency + hier.L2Latency,
		Ctrs:    counters.NewSet(),
	}
	s.ctrHit = s.Ctrs.Counter(counters.L1Hit)
	s.ctrMiss = s.Ctrs.Counter(counters.L1Miss)
	n := h.Geom.TotalProcs()
	s.ports = make([]*port, 2*n)
	for p := 0; p < n; p++ {
		s.ports[2*p] = &port{sys: s}
		s.ports[2*p+1] = &port{sys: s}
	}
	return s
}

// Ports returns the data and instruction ports of a global processor.
func (s *System) Ports(globalProc int) (data, inst cpu.MemPort) {
	return s.ports[2*globalProc], s.ports[2*globalProc+1]
}

// Counters exposes the machine-wide uniform event-counter registry.
func (s *System) Counters() *counters.Set { return s.Ctrs }

// port is one processor port and its L1's residency: the store epoch
// after its last touch of each block, plus one (zero: never touched).
// A processor blocks on each access, so the parked access is one slot.
type port struct {
	sys     *System
	touched blocktab.Table[uint64]

	kind  cpu.AccessKind
	block mem.Block
	store uint64
	done  func(uint64)
}

// Access implements cpu.MemPort. A block counts as an L1 hit if this
// processor touched it since the last conflicting write by another
// processor; otherwise the access pays the perfect-L2 round trip.
func (p *port) Access(kind cpu.AccessKind, addr mem.Addr, store uint64, done func(uint64)) {
	s := p.sys
	b := mem.BlockOf(addr)
	var epoch, touched uint64
	if e := s.blocks.Peek(b); e != nil {
		epoch = e.epoch
	}
	if t := p.touched.Peek(b); t != nil {
		touched = *t
	}
	lat := hier.L1Latency
	if touched < epoch+1 {
		// Not L1-resident: shared-L2 hit.
		s.ctrMiss.Inc()
		lat += s.missLat
	} else {
		s.ctrHit.Inc()
	}
	p.kind, p.block, p.store, p.done = kind, b, store, done
	s.Eng.ScheduleCall(lat, portComplete, p, nil)
}

// portComplete is the closure-free thunk that performs a port's parked
// access once its latency has elapsed.
func portComplete(ctx, _ any) {
	p := ctx.(*port)
	e := p.sys.blocks.At(p.block)
	var val uint64
	switch p.kind {
	case cpu.Load, cpu.IFetch:
		val = e.value
	case cpu.Store:
		e.value = p.store
		e.epoch++ // invalidate other L1 copies
	case cpu.Atomic:
		val = e.value
		e.value = p.store
		e.epoch++
	}
	*p.touched.At(p.block) = e.epoch + 1
	p.done(val)
}
