// Package machine assembles complete simulated M-CMP systems — any of
// the TokenCMP variants, DirectoryCMP (with DRAM or zero-cycle
// directory), HammerCMP (broadcast snooping), or PerfectL2 — drives
// them with workload programs, and
// monitors correctness while they run: a sequential-consistency checker
// on every completed memory operation plus, for token protocols, the
// substrate's token-conservation audit.
package machine

import (
	"context"
	"fmt"

	"tokencmp/internal/counters"
	"tokencmp/internal/cpu"
	"tokencmp/internal/directory"
	"tokencmp/internal/hammercmp"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/perfectl2"
	"tokencmp/internal/sim"
	"tokencmp/internal/stats"
	"tokencmp/internal/tokencmp"
	"tokencmp/internal/topo"
)

// Protocol is the least common denominator of the three system types.
type Protocol interface {
	Ports(globalProc int) (data, inst cpu.MemPort)
	Name() string
	Misses() uint64
}

// tokenAuditor is implemented by token-coherence systems.
type tokenAuditor interface {
	TokenAudit() error
	PersistentRequests() uint64
}

// counterSource is implemented by every system that carries the uniform
// event-counter registry (all four protocol stacks do).
type counterSource interface {
	Counters() *counters.Set
}

// Config selects and parameterizes a machine.
type Config struct {
	Protocol string // a tokencmp variant name, "DirectoryCMP", "DirectoryCMP-zero", "HammerCMP", or "PerfectL2"
	Geom     topo.Geometry
	Seed     int64

	// CheckConsistency wraps every port with the serial-view monitor.
	CheckConsistency bool
	// AuditTokens runs the conservation audit at the end of Run (token
	// protocols only).
	AuditTokens bool

	// Faults configures the network's seeded fault injector (zero value:
	// reliable network, byte-identical to pre-fault builds). What the
	// injector may actually do is still class-gated by the protocol: only
	// stacks with recovery machinery opt traffic in (see
	// network.FaultClass), so drop/dup/reorder are honest no-ops on
	// DirectoryCMP and HammerCMP while jitter applies everywhere.
	Faults network.FaultConfig

	// Optional structural overrides (zero means Table 3 default).
	L1Size, L2BankSize int
}

// Protocols lists every protocol name this package can build, in the
// paper's reporting order.
func Protocols() []string {
	names := []string{"DirectoryCMP", "DirectoryCMP-zero", "HammerCMP"}
	for _, v := range tokencmp.Variants() {
		names = append(names, v.Name)
	}
	return append(names, "PerfectL2")
}

// Machine is a built system plus its processors and monitors.
type Machine struct {
	Eng   *sim.Engine
	Cfg   Config
	Proto Protocol
	Procs []*cpu.Processor

	net *network.Network // nil for PerfectL2

	// Consistency-monitor state.
	expected   map[mem.Block]uint64
	Violations []string
}

// New builds a machine for cfg.
func New(cfg Config) (*Machine, error) {
	eng := sim.NewEngine()
	m := &Machine{Eng: eng, Cfg: cfg, expected: make(map[mem.Block]uint64)}

	netCfg := network.Default()
	netCfg.Faults = cfg.Faults

	switch cfg.Protocol {
	case "DirectoryCMP", "DirectoryCMP-zero":
		dcfg := directory.DefaultConfig(cfg.Geom)
		if cfg.Protocol == "DirectoryCMP-zero" {
			dcfg = directory.ZeroDirConfig(cfg.Geom)
		}
		if cfg.L1Size > 0 {
			dcfg.L1Size = cfg.L1Size
		}
		if cfg.L2BankSize > 0 {
			dcfg.L2BankSize = cfg.L2BankSize
		}
		sys := directory.NewSystem(eng, dcfg, netCfg)
		m.Proto = sys
		m.net = sys.Net
	case "HammerCMP":
		hcfg := hammercmp.DefaultConfig(cfg.Geom)
		if cfg.L1Size > 0 {
			hcfg.L1Size = cfg.L1Size
		}
		if cfg.L2BankSize > 0 {
			hcfg.L2BankSize = cfg.L2BankSize
		}
		sys := hammercmp.NewSystem(eng, hcfg, netCfg)
		m.Proto = sys
		m.net = sys.Net
	case "PerfectL2":
		sys := perfectl2.NewSystem(eng, perfectl2.DefaultConfig(cfg.Geom))
		m.Proto = sys
	default:
		v, err := tokencmp.VariantByName(cfg.Protocol)
		if err != nil {
			return nil, err
		}
		tcfg := tokencmp.DefaultConfig(cfg.Geom, v)
		tcfg.Seed = cfg.Seed
		if cfg.L1Size > 0 {
			tcfg.L1Size = cfg.L1Size
		}
		if cfg.L2BankSize > 0 {
			tcfg.L2BankSize = cfg.L2BankSize
		}
		sys := tokencmp.NewSystem(eng, tcfg, netCfg)
		m.Proto = sys
		m.net = sys.Net
	}
	return m, nil
}

// Traffic returns interconnect traffic counters (empty for PerfectL2).
func (m *Machine) Traffic() stats.Traffic {
	if m.net == nil {
		return stats.Traffic{}
	}
	return m.net.Traffic
}

// Counters returns the machine-wide uniform event-counter snapshot,
// with the interconnect's traffic counters derived from its Traffic
// (nil if the protocol carries no registry).
func (m *Machine) Counters() map[string]uint64 {
	cs, ok := m.Proto.(counterSource)
	if !ok {
		return nil
	}
	snap := cs.Counters().Snapshot()
	if m.net != nil {
		m.net.TrafficCounters(snap)
	}
	return snap
}

// PersistentRequests reports substrate persistent requests (0 for
// non-token protocols).
func (m *Machine) PersistentRequests() uint64 {
	if a, ok := m.Proto.(tokenAuditor); ok {
		return a.PersistentRequests()
	}
	return 0
}

// port wraps a cpu.MemPort with the serial-view monitor: every load must
// return the value of the most recent completed store to its block, and
// every atomic must observe the value it displaces.
type port struct {
	m     *Machine
	inner cpu.MemPort
	proc  int
}

func (p *port) Access(kind cpu.AccessKind, addr mem.Addr, store uint64, done func(uint64)) {
	b := mem.BlockOf(addr)
	p.inner.Access(kind, addr, store, func(v uint64) {
		switch kind {
		case cpu.Load, cpu.IFetch:
			if want := p.m.expected[b]; v != want {
				p.m.violate("proc %d load %v = %d, want %d", p.proc, b, v, want)
			}
		case cpu.Store:
			p.m.expected[b] = store
		case cpu.Atomic:
			if want := p.m.expected[b]; v != want {
				p.m.violate("proc %d swap %v observed %d, want %d", p.proc, b, v, want)
			}
			p.m.expected[b] = store
		}
		done(v)
	})
}

func (m *Machine) violate(format string, args ...interface{}) {
	if len(m.Violations) < 32 {
		m.Violations = append(m.Violations, fmt.Sprintf(format, args...))
	}
}

// Result summarizes a run.
type Result struct {
	Runtime    sim.Time
	Traffic    stats.Traffic
	Misses     uint64
	Persistent uint64
	Events     uint64
	// Counters is the uniform event-counter snapshot at the end of the
	// run (nil for protocols without a registry).
	Counters map[string]uint64
}

// Run executes one program per processor to completion and returns the
// runtime (the finish time of the last processor). limit bounds engine
// events (0 = 4 billion).
func (m *Machine) Run(progs []cpu.Program, limit uint64) (Result, error) {
	return m.RunCtx(context.Background(), progs, limit)
}

// RunCtx is Run with end-to-end cancellation: the context is installed
// on the simulation engine, which polls it once every
// sim.CancelCheckEvery events, so a timed-out or abandoned run stops
// burning its core within that bound. A cancelled run returns a partial
// Result (events fired, simulated time reached, counters so far) and an
// error wrapping ctx.Err(), so callers can match it with errors.Is.
// With an uncancelled context the event sequence — and therefore every
// figure — is byte-identical to Run.
func (m *Machine) RunCtx(ctx context.Context, progs []cpu.Program, limit uint64) (Result, error) {
	g := m.Cfg.Geom
	if len(progs) != g.TotalProcs() {
		return Result{}, fmt.Errorf("machine: %d programs for %d processors", len(progs), g.TotalProcs())
	}
	if limit == 0 {
		limit = 4_000_000_000
	}
	m.Procs = make([]*cpu.Processor, len(progs))
	for i, prog := range progs {
		data, inst := m.Proto.Ports(i)
		if m.Cfg.CheckConsistency {
			data = &port{m: m, inner: data, proc: i}
			inst = &port{m: m, inner: inst, proc: i}
		}
		m.Procs[i] = &cpu.Processor{ID: i, Eng: m.Eng, Data: data, Inst: inst, Prog: prog}
		m.Procs[i].Start()
	}
	allDone := func() bool {
		for _, p := range m.Procs {
			if !p.Finished() {
				return false
			}
		}
		return true
	}
	m.Eng.SetContext(ctx)
	ok := m.Eng.RunUntil(allDone, limit)
	res := Result{Runtime: m.Eng.Now(), Traffic: m.Traffic(), Misses: m.Proto.Misses(),
		Persistent: m.PersistentRequests(), Events: m.Eng.Executed, Counters: m.Counters()}
	if cerr := m.Eng.Err(); cerr != nil {
		return res, fmt.Errorf("machine: %s interrupted after %d events at %v: %w",
			m.Proto.Name(), m.Eng.Executed, m.Eng.Now(), cerr)
	}
	if !ok {
		return res, fmt.Errorf("machine: %s did not finish (events=%d, pending=%d, now=%v)",
			m.Proto.Name(), m.Eng.Executed, m.Eng.Pending(), m.Eng.Now())
	}
	if len(m.Violations) > 0 {
		return res, fmt.Errorf("machine: %s consistency violations: %v", m.Proto.Name(), m.Violations[0])
	}
	if m.Cfg.AuditTokens {
		if a, okA := m.Proto.(tokenAuditor); okA {
			if err := a.TokenAudit(); err != nil {
				return res, fmt.Errorf("machine: %s: %w", m.Proto.Name(), err)
			}
		}
	}
	return res, nil
}
