package machine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tokencmp/internal/counters"
	"tokencmp/internal/cpu"
	"tokencmp/internal/hier"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
	"tokencmp/internal/stats"
	"tokencmp/internal/tokencmp"
	"tokencmp/internal/topo"
	"tokencmp/internal/workload"
)

// smallGeom is a 2-CMP × 2-proc machine for fast integration tests.
func smallGeom() topo.Geometry { return topo.NewGeometry(2, 2, 1) }

func smallCfg(proto string) Config {
	return Config{
		Protocol:         proto,
		Geom:             smallGeom(),
		Seed:             1,
		CheckConsistency: true,
		AuditTokens:      true,
		L1Size:           8 << 10,
		L2BankSize:       64 << 10,
	}
}

func TestLockingAllProtocols(t *testing.T) {
	for _, proto := range Protocols() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			m, err := New(smallCfg(proto))
			if err != nil {
				t.Fatal(err)
			}
			lc := workload.DefaultLocking(4)
			lc.Acquires = 12
			progs, mon := workload.LockingPrograms(lc, m.Cfg.Geom.TotalProcs(), 1)
			res, err := m.Run(progs, 30_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if len(mon.Violations) > 0 {
				t.Fatalf("mutual exclusion violated: %v", mon.Violations[0])
			}
			if got, want := mon.Acquires, uint64(4*12); got != want {
				t.Errorf("acquires = %d, want %d", got, want)
			}
			if res.Runtime <= 0 {
				t.Error("runtime not positive")
			}
		})
	}
}

// TestL1HitCostsTable3Latency checks that every stack charges the one
// Table 3 L1 latency: a load that hits advances simulated time by
// exactly hier.L1Latency, and the first load, which misses, by more.
func TestL1HitCostsTable3Latency(t *testing.T) {
	for _, proto := range Protocols() {
		t.Run(proto, func(t *testing.T) {
			m, err := New(smallCfg(proto))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := m.Proto.Ports(0)
			load := func() sim.Time {
				start, done := m.Eng.Now(), false
				var at sim.Time
				data.Access(cpu.Load, mem.Addr(0x4000), 0, func(uint64) { at, done = m.Eng.Now(), true })
				if !m.Eng.RunUntil(func() bool { return done }, 1_000_000) {
					t.Fatalf("load did not complete (now=%v)", m.Eng.Now())
				}
				return at - start
			}
			if miss := load(); miss <= hier.L1Latency {
				t.Errorf("missing load took %v, want more than %v", miss, hier.L1Latency)
			}
			if hit := load(); hit != hier.L1Latency {
				t.Errorf("hitting load took %v, want %v", hit, hier.L1Latency)
			}
		})
	}
}

// TestSecondAccessDuringMissPanics checks the shared L1 front end's
// one-access-at-a-time contract on each stack that uses it: an Access
// while the port's miss is outstanding is a wiring bug and panics.
func TestSecondAccessDuringMissPanics(t *testing.T) {
	for _, proto := range []string{"DirectoryCMP", "HammerCMP", "TokenCMP-dst1"} {
		t.Run(proto, func(t *testing.T) {
			m, err := New(smallCfg(proto))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := m.Proto.Ports(0)
			misses := m.Proto.Counters().Counter(counters.L1Miss)
			data.Access(cpu.Load, mem.Addr(0x4000), 0, func(uint64) { t.Error("first access completed") })
			if !m.Eng.RunUntil(func() bool { return misses.Value() == 1 }, 1_000_000) {
				t.Fatal("first access never missed")
			}
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "already busy") {
					t.Errorf("second access: recovered %v, want an \"already busy\" panic", r)
				}
			}()
			data.Access(cpu.Load, mem.Addr(0x8000), 0, func(uint64) {})
		})
	}
}

func TestBarrierAllProtocols(t *testing.T) {
	for _, proto := range Protocols() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			m, err := New(smallCfg(proto))
			if err != nil {
				t.Fatal(err)
			}
			bc := workload.DefaultBarrier(m.Cfg.Geom.TotalProcs(), sim.NS(500))
			bc.Iterations = 5
			progs, mon := workload.BarrierPrograms(bc, 1)
			if _, err := m.Run(progs, 30_000_000); err != nil {
				t.Fatal(err)
			}
			if len(mon.Violations) > 0 {
				t.Fatalf("mutual exclusion violated: %v", mon.Violations[0])
			}
		})
	}
}

func TestCommercialAllProtocols(t *testing.T) {
	params := workload.OLTP()
	params.TxnsPerProc = 4
	for _, proto := range Protocols() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			m, err := New(smallCfg(proto))
			if err != nil {
				t.Fatal(err)
			}
			progs, mon := workload.CommercialPrograms(params, m.Cfg.Geom.TotalProcs(), 1)
			if _, err := m.Run(progs, 60_000_000); err != nil {
				t.Fatal(err)
			}
			if len(mon.Violations) > 0 {
				t.Fatalf("mutual exclusion violated: %v", mon.Violations[0])
			}
		})
	}
}

// TestTokenAuditAtQuiescence pins the audit blind spot found on this
// run: when the last processor finishes, token carriers copied across a
// tag or memory access still wait in scheduled events, so an audit
// before draining them reported "blk0x70000159: have 0 tokens, want 16"
// on every TokenCMP variant. The drain must also leave the Result
// exactly as an unaudited run reports it.
func TestTokenAuditAtQuiescence(t *testing.T) {
	params := workload.OLTP()
	params.TxnsPerProc = 3
	for _, v := range tokencmp.Variants() {
		t.Run(v.Name, func(t *testing.T) {
			run := func(audit bool) Result {
				cfg := smallCfg(v.Name)
				cfg.AuditTokens = audit
				m, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				progs, _ := workload.CommercialPrograms(params, m.Cfg.Geom.TotalProcs(), 1)
				res, err := m.Run(progs, 60_000_000)
				if err != nil {
					t.Fatal(err)
				}
				if audit && m.Eng.Pending() != 0 {
					t.Errorf("audited with %d events pending", m.Eng.Pending())
				}
				return res
			}
			audited, plain := run(true), run(false)
			if !reflect.DeepEqual(audited, plain) {
				t.Errorf("audited run's result diverged:\n%+v\nvs unaudited\n%+v", audited, plain)
			}
		})
	}
}

// TestFaultSoakAllProtocols is the seeded fault matrix CI soaks under
// -race: every protocol family must complete the locking benchmark with
// the coherence monitors and token audit on while the interconnect
// drops, duplicates, reorders, and delays messages. Drop/dup/reorder
// are class-gated — the token protocols' kind tables mark their
// transient requests droppable, so net.dropped must actually fire
// there, while the directory and hammer tables leave every kind
// protected and the same knobs are honest no-ops.
func TestFaultSoakAllProtocols(t *testing.T) {
	protos := []string{"DirectoryCMP", "HammerCMP", "TokenCMP-arb0", "TokenCMP-dst1"}
	faultCases := []struct {
		name               string
		drop, dup, reorder float64
		jitter             sim.Time
	}{
		{name: "drop20", drop: 0.20},
		{name: "dup10+reorder10", dup: 0.10, reorder: 0.10},
		{name: "jitter30ns", jitter: sim.NS(30)},
		{name: "storm", drop: 0.20, dup: 0.10, reorder: 0.10, jitter: sim.NS(30)},
	}
	for _, proto := range protos {
		for _, fc := range faultCases {
			proto, fc := proto, fc
			t.Run(proto+"/"+fc.name, func(t *testing.T) {
				for seed := int64(1); seed <= 2; seed++ {
					cfg := smallCfg(proto)
					cfg.Seed = seed
					cfg.Faults = network.FaultConfig{Seed: seed, Drop: fc.drop, Dup: fc.dup, Reorder: fc.reorder, Jitter: fc.jitter}
					m, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					lc := workload.DefaultLocking(4)
					lc.Acquires = 8
					progs, mon := workload.LockingPrograms(lc, m.Cfg.Geom.TotalProcs(), seed)
					res, err := m.Run(progs, 60_000_000)
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if len(mon.Violations) > 0 {
						t.Fatalf("seed %d: mutual exclusion violated: %v", seed, mon.Violations[0])
					}
					if got, want := mon.Acquires, uint64(4*8); got != want {
						t.Errorf("seed %d: acquires = %d, want %d", seed, got, want)
					}
					dropped := res.Counters[counters.NetDropped]
					token := strings.HasPrefix(proto, "TokenCMP")
					if token && fc.drop > 0 && dropped == 0 {
						t.Errorf("seed %d: drop=%.2f but no messages dropped", seed, fc.drop)
					}
					if !token && dropped != 0 {
						t.Errorf("seed %d: %d drops on a protocol with no droppable class", seed, dropped)
					}
				}
			})
		}
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() sim.Time {
		m, err := New(smallCfg("TokenCMP-dst1"))
		if err != nil {
			t.Fatal(err)
		}
		lc := workload.DefaultLocking(8)
		lc.Acquires = 10
		progs, _ := workload.LockingPrograms(lc, m.Cfg.Geom.TotalProcs(), 42)
		res, err := m.Run(progs, 30_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res.Runtime
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Errorf("non-deterministic runtimes: %v vs %v", a, b)
	}
}

func TestSeedPerturbsRuns(t *testing.T) {
	runSeed := func(seed int64) sim.Time {
		m, err := New(smallCfg("DirectoryCMP"))
		if err != nil {
			t.Fatal(err)
		}
		lc := workload.DefaultLocking(4)
		lc.Acquires = 10
		progs, _ := workload.LockingPrograms(lc, m.Cfg.Geom.TotalProcs(), seed)
		res, err := m.Run(progs, 30_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res.Runtime
	}
	if runSeed(1) == runSeed(2) {
		t.Log("warning: different seeds produced identical runtimes (possible but unlikely)")
	}
}

// TestRunLimitIsExact pins where a run stops: as soon as the event that
// finishes the last processor fires. A limit of exactly the events the
// run needs succeeds with the unlimited run's Result, and one event
// fewer reports that the run did not finish, naming the protocol.
func TestRunLimitIsExact(t *testing.T) {
	for _, proto := range Protocols() {
		t.Run(proto, func(t *testing.T) {
			run := func(limit uint64) (Result, error) {
				cfg := smallCfg(proto)
				cfg.AuditTokens = false // the audit's drain fires events past the last finish
				m, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				lc := workload.DefaultLocking(4)
				lc.Acquires = 6
				progs, _ := workload.LockingPrograms(lc, m.Cfg.Geom.TotalProcs(), 1)
				return m.Run(progs, limit)
			}
			want, err := run(0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := run(want.Events)
			if err != nil {
				t.Fatalf("limit = the %d events needed: %v", want.Events, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("limit = the %d events needed: Result %+v, want %+v", want.Events, got, want)
			}
			prefix := "machine: " + proto + " did not finish"
			if _, err := run(want.Events - 1); err == nil || !strings.HasPrefix(err.Error(), prefix) {
				t.Errorf("limit one short of the %d events needed: err = %v, want %s", want.Events, err, prefix)
			}
		})
	}
}

// TestRunCtxCancellationBound asserts a cancelled machine run stops
// within the engine's documented event bound, returns an error matching
// errors.Is(err, context.Canceled), and reports partial progress.
func TestRunCtxCancellationBound(t *testing.T) {
	m, err := New(smallCfg("TokenCMP-dst1"))
	if err != nil {
		t.Fatal(err)
	}
	lc := workload.DefaultLocking(4)
	lc.Acquires = 1 << 20 // far more work than the cancellation allows
	progs, _ := workload.LockingPrograms(lc, smallGeom().TotalProcs(), 1)
	ctx, cancel := context.WithCancel(context.Background())
	const cancelAfter = 5000
	// Cancel from inside the simulation once it is clearly in flight.
	var tick func(_, _ any)
	tick = func(_, _ any) {
		if m.Eng.Executed >= cancelAfter {
			cancel()
			return
		}
		m.Eng.ScheduleCall(sim.NS(10), tick, nil, nil)
	}
	m.Eng.ScheduleCall(0, tick, nil, nil)
	res, err := m.RunCtx(ctx, progs, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Events == 0 {
		t.Error("partial result carries no progress")
	}
	if res.Events > cancelAfter+2*sim.CancelCheckEvery {
		t.Errorf("run fired %d events, want <= cancel point %d + bound %d",
			res.Events, cancelAfter, sim.CancelCheckEvery)
	}
}

// TestRunCtxBackgroundIdentical asserts RunCtx with a live (but never
// cancelled) context produces the exact result Run does.
func TestRunCtxBackgroundIdentical(t *testing.T) {
	runOnce := func(ctx context.Context) Result {
		m, err := New(smallCfg("DirectoryCMP"))
		if err != nil {
			t.Fatal(err)
		}
		lc := workload.DefaultLocking(4)
		lc.Acquires = 8
		progs, _ := workload.LockingPrograms(lc, smallGeom().TotalProcs(), 1)
		var res Result
		if ctx == nil {
			res, err = m.Run(progs, 0)
		} else {
			res, err = m.RunCtx(ctx, progs, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := runOnce(nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	live := runOnce(ctx)
	if plain.Runtime != live.Runtime || plain.Events != live.Events || plain.Misses != live.Misses {
		t.Errorf("live-context run diverged: %+v vs %+v", plain, live)
	}
}

// TestCounterRelations pins the counter registry's relations on every
// protocol and paper workload at 2×2×2 (see checkCounterRelations).
func TestCounterRelations(t *testing.T) {
	g := topo.NewGeometry(2, 2, 2)
	workloads := []struct {
		name  string
		progs func() []cpu.Program
	}{
		{"locking", func() []cpu.Program {
			lc := workload.DefaultLocking(4)
			lc.Acquires = 8
			progs, _ := workload.LockingPrograms(lc, g.TotalProcs(), 1)
			return progs
		}},
		{"barrier", func() []cpu.Program {
			bc := workload.DefaultBarrier(g.TotalProcs(), sim.NS(500))
			bc.Iterations = 4
			progs, _ := workload.BarrierPrograms(bc, 1)
			return progs
		}},
		{"OLTP", func() []cpu.Program { return oltpPrograms(g, 3) }},
	}
	for _, proto := range Protocols() {
		for _, wl := range workloads {
			t.Run(proto+"/"+wl.name, func(t *testing.T) {
				cfg := smallCfg(proto)
				cfg.Geom = g
				checkCounterRelations(t, cfg, wl.progs())
			})
		}
	}
}

// TestNetCountersMatchTraffic checks the same relations on one more
// row: every protocol on the 2×2×1 machine running 4 OLTP transactions
// per processor.
func TestNetCountersMatchTraffic(t *testing.T) {
	for _, proto := range Protocols() {
		t.Run(proto, func(t *testing.T) {
			checkCounterRelations(t, smallCfg(proto), oltpPrograms(smallGeom(), 4))
		})
	}
}

func oltpPrograms(g topo.Geometry, txns int) []cpu.Program {
	params := workload.OLTP()
	params.TxnsPerProc = txns
	progs, _ := workload.CommercialPrograms(params, g.TotalProcs(), 1)
	return progs
}

// checkCounterRelations runs progs on a machine built from cfg and
// checks the relations its counters must satisfy:
//   - each completed processor memory operation is exactly one L1 hit
//     or one L1 miss, so l1.hit + l1.miss equals the summed MemOps;
//   - Result's Misses and Persistent are l1.miss and req.persistent;
//   - the interconnect's net.* counters agree with the run's Traffic:
//     bytes and hops are the per-level traffic totals, an inter-CMP
//     message is one inter-CMP hop, and each adds at most two intra-CMP
//     hops (one per cache-side endpoint). PerfectL2 has no interconnect
//     and reports no net.* counter;
//   - HammerCMP answers every probe once, with data from the owner or
//     a dataless ack, so probe.sent = probe.ack + probe.data.
func checkCounterRelations(t *testing.T, cfg Config, progs []cpu.Program) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(progs, 60_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var ops uint64
	for _, p := range m.Procs {
		ops += p.MemOps
	}
	c, tr := res.Counters, &res.Traffic
	if hit, miss := c[counters.L1Hit], c[counters.L1Miss]; hit+miss != ops || ops == 0 {
		t.Errorf("l1.hit %d + l1.miss %d = %d, want %d memory operations", hit, miss, hit+miss, ops)
	}
	if res.Misses != c[counters.L1Miss] {
		t.Errorf("Result.Misses = %d, want l1.miss %d", res.Misses, c[counters.L1Miss])
	}
	if res.Persistent != c[counters.ReqPersistent] {
		t.Errorf("Result.Persistent = %d, want req.persistent %d", res.Persistent, c[counters.ReqPersistent])
	}
	if cfg.Protocol == "HammerCMP" {
		if sent, ack, data := c[counters.ProbeSent], c[counters.ProbeAck], c[counters.ProbeData]; sent != ack+data {
			t.Errorf("probe.sent %d, want probe.ack %d + probe.data %d", sent, ack, data)
		}
	}
	if cfg.Protocol == "PerfectL2" {
		for name := range c {
			if strings.HasPrefix(name, "net.") {
				t.Errorf("PerfectL2 reports interconnect counter %s", name)
			}
		}
		return
	}
	for _, rel := range []struct {
		name      string
		got, want uint64
	}{
		{counters.NetBytesIntraCMP, c[counters.NetBytesIntraCMP], tr.TotalBytes(stats.IntraCMP)},
		{counters.NetBytesInterCMP, c[counters.NetBytesInterCMP], tr.TotalBytes(stats.InterCMP)},
		{counters.NetHopIntraCMP, c[counters.NetHopIntraCMP], tr.TotalMessages(stats.IntraCMP)},
		{counters.NetHopInterCMP, c[counters.NetHopInterCMP], tr.TotalMessages(stats.InterCMP)},
		{counters.NetMsgInterCMP, c[counters.NetMsgInterCMP], c[counters.NetHopInterCMP]},
	} {
		if rel.got != rel.want {
			t.Errorf("%s = %d, want %d", rel.name, rel.got, rel.want)
		}
	}
	msgIntra, hopIntra, inter := c[counters.NetMsgIntraCMP], c[counters.NetHopIntraCMP], c[counters.NetMsgInterCMP]
	if msgIntra == 0 || inter == 0 || msgIntra > hopIntra || hopIntra-msgIntra > 2*inter {
		t.Errorf("intra msgs %d, intra hops %d, inter msgs %d: want 0 < msgs <= hops <= msgs + 2*inter",
			msgIntra, hopIntra, inter)
	}
}

// TestTable3NewAllocatesLittle pins the lazy cache arrays: building a
// 4-CMP × 4-proc × 4-bank machine at the Table 3 sizes (128 KB L1s,
// 2 MB L2 banks) allocates no cache lines until the run installs some,
// so construction stays under 2 MB on every protocol. Zeroing every
// line up front cost 31–47 MB per machine.
func TestTable3NewAllocatesLittle(t *testing.T) {
	const limit = 2 << 20
	for _, proto := range Protocols() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := New(Config{Protocol: proto, Geom: topo.NewGeometry(4, 4, 4), Seed: 1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(m)
		if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
			t.Errorf("%s: machine.New allocated %d bytes, want < %d", proto, got, limit)
		} else {
			t.Logf("%s: %d bytes", proto, got)
		}
	}
}

// TestTable3RunAllocatesLittle pins the set-granular cache arrays over
// a whole short run: a 4-CMP × 4-proc × 4-bank Table 3 machine running
// the locking benchmark (512 locks, 8 acquires) allocates under 640 KB
// on every protocol, counting machine.New, program generation and
// RunCtx. The run installs a few hundred blocks; allocating 64-set
// pages for them cost 0.55–3.0 MB. Without the shared lock-pick source,
// the fixed predictor table and the per-node link records it took
// 141–583 KB; with them, 61–449 KB.
func TestTable3RunAllocatesLittle(t *testing.T) {
	const limit = 640 << 10
	for _, proto := range Protocols() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := New(Config{Protocol: proto, Geom: topo.NewGeometry(4, 4, 4), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		lc := workload.DefaultLocking(512)
		lc.Acquires = 8
		progs, _ := workload.LockingPrograms(lc, m.Cfg.Geom.TotalProcs(), 1)
		if _, err := m.RunCtx(context.Background(), progs, 0); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(m)
		if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
			t.Errorf("%s: New, programs and run allocated %d bytes, want < %d", proto, got, limit)
		} else {
			t.Logf("%s: %d bytes", proto, got)
		}
	}
}

// TestNewUnknownProtocol checks that New and CheckProtocol agree on
// which names build, and that an unknown name is reported with the
// known ones.
func TestNewUnknownProtocol(t *testing.T) {
	known := "(known: " + strings.Join(Protocols(), ", ") + ")"
	for _, name := range append(Protocols(), "Foo", "", "tokencmp-dst1", "TokenCMP") {
		cfg := Config{Protocol: name, Geom: topo.NewGeometry(2, 2, 1)}
		_, err := New(cfg)
		if check := CheckProtocol(name); (err == nil) != (check == nil) {
			t.Errorf("%q: New = %v but CheckProtocol = %v", name, err, check)
		}
		want := fmt.Sprintf("machine: unknown protocol %q %s", name, known)
		if err != nil && err.Error() != want {
			t.Errorf("%q: New = %q, want %q", name, err, want)
		}
	}
}
