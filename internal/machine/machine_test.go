package machine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"tokencmp/internal/counters"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
	"tokencmp/internal/stats"
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

// TestFaultSoakAllProtocols is the seeded fault matrix CI soaks under
// -race: every protocol family must complete the locking benchmark with
// the coherence monitors and token audit on while the interconnect
// drops, duplicates, reorders, and delays messages. Drop/dup/reorder
// are class-gated — the token protocols classify their transient
// requests as droppable, so net.dropped must actually fire there,
// while the directory and hammer systems (no Classify hook) treat
// every message as protected and the same knobs are honest no-ops.
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
					cfg.Faults = network.UniformFaults(seed, fc.drop, fc.dup, fc.reorder, fc.jitter)
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
	m.Eng.Schedule(0, func() {
		var tick func()
		tick = func() {
			if m.Eng.Executed >= cancelAfter {
				cancel()
				return
			}
			m.Eng.Schedule(sim.NS(10), tick)
		}
		tick()
	})
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

// TestNetCountersMatchTraffic asserts, on one seed per protocol, that
// the interconnect's net.* counters agree with the run's Traffic: bytes
// and hops are the per-level traffic totals, an inter-CMP message is
// one inter-CMP hop, and each adds at most two intra-CMP hops (one per
// cache-side endpoint). PerfectL2 has no interconnect and no net.*
// traffic counters.
func TestNetCountersMatchTraffic(t *testing.T) {
	for _, proto := range Protocols() {
		t.Run(proto, func(t *testing.T) {
			m, err := New(smallCfg(proto))
			if err != nil {
				t.Fatal(err)
			}
			params := workload.OLTP()
			params.TxnsPerProc = 4
			progs, _ := workload.CommercialPrograms(params, m.Cfg.Geom.TotalProcs(), 1)
			res, err := m.Run(progs, 60_000_000)
			if err != nil {
				t.Fatal(err)
			}
			c, tr := res.Counters, &res.Traffic
			if proto == "PerfectL2" {
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
		})
	}
}
