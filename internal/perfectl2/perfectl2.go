// Package perfectl2 implements the paper's unimplementable lower bound:
// every L1 miss hits in an infinite, instantly-coherent L2 cache shared
// across all CMPs (Section 6). No coherence traffic exists; an access
// costs the L1 latency, plus the on-chip round trip and L2 access when it
// leaves the L1.
package perfectl2

import (
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

	// values is the globally coherent store.
	values map[mem.Block]uint64
	// l1 models per-processor L1 residency: the last epoch each (proc,
	// block) pair was touched and the block's invalidation epoch.
	touched map[l1Key]uint64
	epoch   map[mem.Block]uint64

	ports []*port

	Ctrs            *counters.Set
	ctrHit, ctrMiss *counters.Counter
}

type l1Key struct {
	proc  int
	block mem.Block
	instr bool
}

// NewSystem builds a PerfectL2 machine. Only the geometry of h matters:
// the shared L2 is infinite and the L1s never evict.
func NewSystem(eng *sim.Engine, h hier.Config) *System {
	s := &System{
		Eng:     eng,
		missLat: 2*network.Default().OnChip.Latency + hier.L2Latency,
		values:  make(map[mem.Block]uint64),
		touched: make(map[l1Key]uint64),
		epoch:   make(map[mem.Block]uint64),
		Ctrs:    counters.NewSet(),
	}
	s.ctrHit = s.Ctrs.Counter(counters.L1Hit)
	s.ctrMiss = s.Ctrs.Counter(counters.L1Miss)
	n := h.Geom.TotalProcs()
	s.ports = make([]*port, 2*n)
	for p := 0; p < n; p++ {
		s.ports[2*p] = &port{sys: s, proc: p, instr: false}
		s.ports[2*p+1] = &port{sys: s, proc: p, instr: true}
	}
	return s
}

// Ports returns the data and instruction ports of a global processor.
func (s *System) Ports(globalProc int) (data, inst cpu.MemPort) {
	return s.ports[2*globalProc], s.ports[2*globalProc+1]
}

// Name reports the protocol name.
func (s *System) Name() string { return "PerfectL2" }

// Counters exposes the machine-wide uniform event-counter registry.
func (s *System) Counters() *counters.Set { return s.Ctrs }

type port struct {
	sys   *System
	proc  int
	instr bool
}

// Access implements cpu.MemPort. A block counts as an L1 hit if this
// processor touched it since the last conflicting write by another
// processor; otherwise the access pays the perfect-L2 round trip.
func (p *port) Access(kind cpu.AccessKind, addr mem.Addr, store uint64, done func(uint64)) {
	s := p.sys
	b := mem.BlockOf(addr)
	key := l1Key{proc: p.proc, block: b, instr: p.instr}
	lat := hier.L1Latency
	if s.touched[key] < s.epoch[b]+1 {
		// Not L1-resident: shared-L2 hit.
		s.ctrMiss.Inc()
		lat += s.missLat
	} else {
		s.ctrHit.Inc()
	}
	s.Eng.Schedule(lat, func() {
		var val uint64
		switch kind {
		case cpu.Load, cpu.IFetch:
			val = s.values[b]
		case cpu.Store:
			s.values[b] = store
			s.epoch[b]++ // invalidate other L1 copies
		case cpu.Atomic:
			val = s.values[b]
			s.values[b] = store
			s.epoch[b]++
		}
		s.touched[key] = s.epoch[b] + 1
		done(val)
	})
}
