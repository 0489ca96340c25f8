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
	"slices"
	"strings"

	"tokencmp/internal/counters"
	"tokencmp/internal/cpu"
	"tokencmp/internal/directory"
	"tokencmp/internal/hammercmp"
	"tokencmp/internal/hier"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/perfectl2"
	"tokencmp/internal/sim"
	"tokencmp/internal/stats"
	"tokencmp/internal/tokencmp"
	"tokencmp/internal/topo"
)

// Protocol is the least common denominator of the protocol stacks. Its
// counter registry is the only event accounting a system keeps.
type Protocol interface {
	Ports(globalProc int) (data, inst cpu.MemPort)
	Counters() *counters.Set
}

// tokenAuditor is implemented by token-coherence systems.
type tokenAuditor interface {
	TokenAudit() error
}

// Config selects and parameterizes a machine.
type Config struct {
	Protocol string // one of the names Protocols lists
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

// builder builds one protocol's system and returns it with its
// network (nil for PerfectL2).
type builder func(eng *sim.Engine, h hier.Config, cfg Config, netCfg network.Config) (Protocol, *network.Network)

// stack is one row of the protocol table.
type stack struct {
	name  string
	build builder
}

// stacks is the one table that maps a protocol name to its system, in
// the paper's reporting order: DirectoryCMP with a DRAM and with a
// zero-cycle directory, HammerCMP, the Table 1 TokenCMP variants and
// PerfectL2.
var stacks = func() []stack {
	directoryCMP := func(zeroDir bool) builder {
		return func(eng *sim.Engine, h hier.Config, _ Config, netCfg network.Config) (Protocol, *network.Network) {
			sys := directory.NewSystem(eng, h, zeroDir, netCfg)
			return sys, sys.Net
		}
	}
	rows := []stack{
		{"DirectoryCMP", directoryCMP(false)},
		{"DirectoryCMP-zero", directoryCMP(true)},
		{"HammerCMP", func(eng *sim.Engine, h hier.Config, _ Config, netCfg network.Config) (Protocol, *network.Network) {
			sys := hammercmp.NewSystem(eng, h, netCfg)
			return sys, sys.Net
		}},
	}
	for _, v := range tokencmp.Variants() {
		rows = append(rows, stack{v.Name, func(eng *sim.Engine, h hier.Config, cfg Config, netCfg network.Config) (Protocol, *network.Network) {
			tcfg := tokencmp.DefaultConfig(v)
			tcfg.Seed = cfg.Seed
			sys := tokencmp.NewSystem(eng, h, tcfg, netCfg)
			return sys, sys.Net
		}})
	}
	return append(rows, stack{"PerfectL2", func(eng *sim.Engine, h hier.Config, _ Config, _ network.Config) (Protocol, *network.Network) {
		return perfectl2.NewSystem(eng, h), nil
	}})
}()

// Protocols lists every protocol name this package can build, in the
// paper's reporting order.
func Protocols() []string {
	names := make([]string, len(stacks))
	for i, st := range stacks {
		names[i] = st.name
	}
	return names
}

// CheckProtocol returns nil for a name Protocols lists, and otherwise
// an error that lists them.
func CheckProtocol(name string) error {
	if slices.Contains(Protocols(), name) {
		return nil
	}
	return fmt.Errorf("machine: unknown protocol %q (known: %s)", name, strings.Join(Protocols(), ", "))
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
	i := slices.IndexFunc(stacks, func(st stack) bool { return st.name == cfg.Protocol })
	if i < 0 {
		return nil, CheckProtocol(cfg.Protocol)
	}
	eng := sim.NewEngine()
	m := &Machine{Eng: eng, Cfg: cfg, expected: make(map[mem.Block]uint64)}

	netCfg := network.Default()
	netCfg.Faults = cfg.Faults

	h := hier.Config{Geom: cfg.Geom, L1Size: cfg.L1Size, L2BankSize: cfg.L2BankSize}
	m.Proto, m.net = stacks[i].build(eng, h, cfg, netCfg)
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
// with the interconnect's traffic counters derived from its Traffic.
func (m *Machine) Counters() map[string]uint64 {
	snap := m.Proto.Counters().Snapshot()
	if m.net != nil {
		m.net.TrafficCounters(snap)
	}
	return snap
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
	Runtime sim.Time
	Traffic stats.Traffic
	// Misses and Persistent are the l1.miss and req.persistent entries
	// of Counters, lifted out for the figures.
	Misses     uint64
	Persistent uint64
	Events     uint64
	// Counters is the uniform event-counter snapshot at the end of the
	// run.
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
	running := len(progs) // processors whose program has not finished
	for i, prog := range progs {
		data, inst := m.Proto.Ports(i)
		if m.Cfg.CheckConsistency {
			data = &port{m: m, inner: data, proc: i}
			inst = &port{m: m, inner: inst, proc: i}
		}
		m.Procs[i] = &cpu.Processor{Eng: m.Eng, Data: data, Inst: inst, Prog: prog, Running: &running}
		m.Procs[i].Start()
	}
	allDone := func() bool { return running == 0 }
	m.Eng.SetContext(ctx)
	start := m.Eng.Executed
	ok := m.Eng.RunUntil(allDone, limit)
	snap := m.Counters()
	res := Result{Runtime: m.Eng.Now(), Traffic: m.Traffic(), Misses: snap[counters.L1Miss],
		Persistent: snap[counters.ReqPersistent], Events: m.Eng.Executed, Counters: snap}
	if err := m.interrupted(); err != nil {
		return res, err
	}
	if !ok {
		return res, fmt.Errorf("machine: %s did not finish (events=%d, pending=%d, now=%v)",
			m.Cfg.Protocol, m.Eng.Executed, m.Eng.Pending(), m.Eng.Now())
	}
	if len(m.Violations) > 0 {
		return res, fmt.Errorf("machine: %s consistency violations: %v", m.Cfg.Protocol, m.Violations[0])
	}
	if a, okA := m.Proto.(tokenAuditor); okA && m.Cfg.AuditTokens {
		if err := m.drain(limit - (m.Eng.Executed - start)); err != nil {
			return res, err
		}
		if err := a.TokenAudit(); err != nil {
			return res, fmt.Errorf("machine: %s: %w", m.Cfg.Protocol, err)
		}
	}
	return res, nil
}

// drain fires the events still pending when the last processor
// finished, at most limit of them. The token audit counts tokens in
// caches, memories and messages on the wire, so it holds only once no
// token waits in a scheduled event (a carrier held across a
// tag or memory access). Result is snapshotted before the drain, so
// draining moves no figure.
func (m *Machine) drain(limit uint64) error {
	if limit > 0 {
		m.Eng.Run(limit)
	}
	if err := m.interrupted(); err != nil {
		return err
	}
	if n := m.Eng.Pending(); n > 0 {
		return fmt.Errorf("machine: %s did not quiesce for the token audit (events=%d, pending=%d, now=%v)",
			m.Cfg.Protocol, m.Eng.Executed, n, m.Eng.Now())
	}
	return nil
}

// interrupted wraps the engine's cancellation error, if any, with the
// run's position.
func (m *Machine) interrupted() error {
	if cerr := m.Eng.Err(); cerr != nil {
		return fmt.Errorf("machine: %s interrupted after %d events at %v: %w",
			m.Cfg.Protocol, m.Eng.Executed, m.Eng.Now(), cerr)
	}
	return nil
}
