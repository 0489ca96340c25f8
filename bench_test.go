// Package bench holds one testing.B benchmark per paper table and
// figure. Each bench runs a scaled-down version of the corresponding
// experiment (cmd/ tools regenerate the full-size rows); b.ReportMetric
// attaches the headline numbers so `go test -bench=.` prints the same
// series shape the paper reports.
package bench

import (
	"context"
	"fmt"
	"testing"
	"time"

	"tokencmp/internal/cpu"
	"tokencmp/internal/experiments"
	"tokencmp/internal/hier"
	"tokencmp/internal/machine"
	"tokencmp/internal/mc"
	"tokencmp/internal/mc/models"
	"tokencmp/internal/network"
	"tokencmp/internal/runner"
	"tokencmp/internal/sim"
	"tokencmp/internal/simd"
	"tokencmp/internal/stats"
	"tokencmp/internal/tokencmp"
	"tokencmp/internal/topo"
	"tokencmp/internal/workload"
)

// reportEventRate attaches host ns/event and events/sec to a bench.
// events is one op's total over every run (the runs are deterministic,
// so every op fires the same events); the time is wall clock at the
// bench's job count.
func reportEventRate(b *testing.B, events uint64) {
	per := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(events)
	b.ReportMetric(per, "ns/event")
	b.ReportMetric(1e9/per, "events/sec")
}

func sweepEvents(sweep *experiments.Sweep) (n uint64) {
	for _, cells := range sweep.Cells {
		for _, c := range cells {
			n += c.Events
		}
	}
	return n
}

func benchOpts() experiments.Options {
	opt := experiments.DefaultOptions()
	opt.Seeds = 1
	opt.Acquires = 12
	opt.Barriers = 5
	opt.TxnsPerProc = 8
	// Fan independent (protocol, config, seed) runs across all cores;
	// the merged figures are byte-identical to a serial run.
	opt.Jobs = runner.DefaultJobs()
	return opt
}

// BenchmarkFig2LockingPersistent regenerates Figure 2: the locking sweep
// with persistent-requests-only policies.
func BenchmarkFig2LockingPersistent(b *testing.B) {
	b.ReportAllocs()
	opt := benchOpts()
	var events uint64
	for i := 0; i < b.N; i++ {
		sweep, err := experiments.RunLockSweep(
			[]string{"TokenCMP-arb0", "DirectoryCMP", "DirectoryCMP-zero", "HammerCMP", "TokenCMP-dst0"},
			[]int{2, 32, 512}, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			base := sweep.Baseline()
			b.ReportMetric(sweep.Cells["2"]["TokenCMP-arb0"].Runtime.Mean()/base, "arb0@2locks")
			b.ReportMetric(sweep.Cells["2"]["TokenCMP-dst0"].Runtime.Mean()/base, "dst0@2locks")
			b.ReportMetric(sweep.Cells["512"]["TokenCMP-dst0"].Runtime.Mean()/base, "dst0@512locks")
			b.ReportMetric(sweep.Cells["512"]["HammerCMP"].Runtime.Mean()/base, "hammer@512locks")
			events = sweepEvents(sweep)
		}
	}
	reportEventRate(b, events)
}

// BenchmarkFig3LockingTransient regenerates Figure 3: the sweep with
// transient + persistent policies.
func BenchmarkFig3LockingTransient(b *testing.B) {
	b.ReportAllocs()
	opt := benchOpts()
	var events uint64
	for i := 0; i < b.N; i++ {
		sweep, err := experiments.RunLockSweep(
			[]string{"DirectoryCMP", "TokenCMP-dst4", "TokenCMP-dst1", "TokenCMP-dst1-pred"},
			[]int{2, 32, 512}, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			base := sweep.Baseline()
			b.ReportMetric(sweep.Cells["512"]["TokenCMP-dst1"].Runtime.Mean()/base, "dst1@512locks")
			b.ReportMetric(sweep.Cells["2"]["TokenCMP-dst4"].Runtime.Mean()/base, "dst4@2locks")
			b.ReportMetric(sweep.Cells["2"]["TokenCMP-dst1-pred"].Runtime.Mean()/base, "dst1pred@2locks")
			events = sweepEvents(sweep)
		}
	}
	reportEventRate(b, events)
}

// BenchmarkTable4Barrier regenerates Table 4: the barrier micro-benchmark
// under fixed and jittered work.
func BenchmarkTable4Barrier(b *testing.B) {
	b.ReportAllocs()
	opt := benchOpts()
	protos := []string{"TokenCMP-arb0", "TokenCMP-dst0", "DirectoryCMP", "TokenCMP-dst1"}
	for i := 0; i < b.N; i++ {
		table, err := experiments.RunBarrierTable(protos, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fixed := table.Cells["fixed"]
			base := fixed["DirectoryCMP"].Runtime.Mean()
			b.ReportMetric(fixed["TokenCMP-arb0"].Runtime.Mean()/base, "arb0-fixed")
			b.ReportMetric(fixed["TokenCMP-dst1"].Runtime.Mean()/base, "dst1-fixed")
		}
	}
}

// BenchmarkFig6Runtime regenerates Figure 6: commercial-workload runtime
// normalized to DirectoryCMP (the paper's 10–50% speedups).
func BenchmarkFig6Runtime(b *testing.B) {
	b.ReportAllocs()
	opt := benchOpts()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCommercial(
			[]string{"OLTP", "SPECjbb"},
			[]string{"DirectoryCMP", "HammerCMP", "TokenCMP-dst1", "PerfectL2"}, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, wl := range res.Points {
				base := res.Cells[wl]["DirectoryCMP"].Runtime.Mean()
				tok := res.Cells[wl]["TokenCMP-dst1"].Runtime.Mean()
				ham := res.Cells[wl]["HammerCMP"].Runtime.Mean()
				b.ReportMetric((base/tok-1)*100, wl+"-speedup-%")
				b.ReportMetric((base/ham-1)*100, wl+"-hammer-speedup-%")
			}
			events = sweepEvents(res)
		}
	}
	reportEventRate(b, events)
}

// BenchmarkFig7aInterTraffic regenerates Figure 7a: inter-CMP bytes
// normalized to DirectoryCMP.
func BenchmarkFig7aInterTraffic(b *testing.B) {
	benchTraffic(b, stats.InterCMP, "inter")
}

// BenchmarkFig7bIntraTraffic regenerates Figure 7b: intra-CMP bytes
// normalized to DirectoryCMP.
func BenchmarkFig7bIntraTraffic(b *testing.B) {
	benchTraffic(b, stats.IntraCMP, "intra")
}

func benchTraffic(b *testing.B, level stats.Level, tag string) {
	b.ReportAllocs()
	opt := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCommercial(
			[]string{"OLTP"},
			[]string{"DirectoryCMP", "HammerCMP", "TokenCMP-dst1", "TokenCMP-dst1-filt"}, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			base := float64(res.Cells["OLTP"]["DirectoryCMP"].Traffic.TotalBytes(level))
			tok := float64(res.Cells["OLTP"]["TokenCMP-dst1"].Traffic.TotalBytes(level))
			filt := float64(res.Cells["OLTP"]["TokenCMP-dst1-filt"].Traffic.TotalBytes(level))
			ham := float64(res.Cells["OLTP"]["HammerCMP"].Traffic.TotalBytes(level))
			b.ReportMetric(tok/base, tag+"-dst1-vs-dir")
			b.ReportMetric(filt/base, tag+"-filt-vs-dir")
			b.ReportMetric(ham/base, tag+"-hammer-vs-dir")
		}
	}
}

// BenchmarkSec5ModelCheck regenerates the Section 5 verification effort
// comparison (reachable-state counts) and reports checker throughput:
// states/sec directly bounds how big a configuration Section 5 can
// verify, so BENCH_ci.json tracks it alongside the allocation series.
// The checks run with symmetry reduction, as cmd/modelcheck does by
// default: the *-states metrics count canonical representatives, the
// *-full metrics their orbit expansions (the unreduced reachable
// counts), and reduction-x the overall orbit-reduction factor. The
// hammer model runs at its true 3-cache default — 233k unreduced
// states, which only the reduction makes bench-cheap.
func BenchmarkSec5ModelCheck(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt := mc.Options{Jobs: runner.DefaultJobs(), Symmetry: true}
		cfg := models.DefaultTokenConfig(models.SafetyOnly)
		safety := mc.CheckOpt(models.NewTokenModel(cfg), opt)
		dir := mc.CheckOpt(models.NewDirModel(3, 3), opt)
		hammer := mc.CheckOpt(models.NewHammerModel(3, 5), opt)
		if !safety.OK() || !dir.OK() || !hammer.OK() {
			b.Fatal("model checking failed")
		}
		if i == 0 {
			states := safety.States + dir.States + hammer.States
			full := safety.FullStates + dir.FullStates + hammer.FullStates
			elapsed := safety.Elapsed + dir.Elapsed + hammer.Elapsed
			b.ReportMetric(float64(states)/elapsed.Seconds(), "states/sec")
			b.ReportMetric(float64(full)/float64(states), "reduction-x")
			b.ReportMetric(float64(safety.States), "safety-states")
			b.ReportMetric(float64(safety.FullStates), "safety-full")
			b.ReportMetric(float64(dir.States), "dir-states")
			b.ReportMetric(float64(dir.FullStates), "dir-full")
			b.ReportMetric(float64(hammer.States), "hammer-states")
			b.ReportMetric(float64(hammer.FullStates), "hammer-full")
		}
	}
}

// BenchmarkSimdCacheParallel measures the daemon's serving path under
// contention: every core hammers the singleflight result cache on a
// warm key, the steady state of a daemon answering repeated identical
// experiments. One op is one served request. The hit path is a single
// mutex acquisition plus an LRU touch, so this series pins both the
// cache's scalability and its zero-allocation fast path.
func BenchmarkSimdCacheParallel(b *testing.B) {
	b.ReportAllocs()
	c := simd.NewCache(64, time.Hour, context.Background(), nil)
	ctx := context.Background()
	warm := func(context.Context) ([]byte, error) { return []byte(`{"benchmark":"warm"}`), nil }
	if _, err := c.Do(ctx, "warm", warm); err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			got, err := c.Do(ctx, "warm", warm)
			if err != nil || len(got) == 0 {
				b.Error("cache miss on warm key")
				return
			}
		}
	})
}

// table3Delays are the simulator's fixed latencies (Table 3): L1, L2,
// on-chip link, memory controller, off-chip link, response hold, DRAM.
var table3Delays = []sim.Time{hier.L1Latency, hier.L2Latency, network.Default().OnChip.Latency, hier.MemLatency,
	network.Default().OffChip.Latency, hier.ResponseDelay, hier.DRAMLatency}

// stepper keeps an engine's queue at a fixed depth: each event it fires
// schedules its successor.
type stepper struct {
	eng *sim.Engine
	k   int
}

func reschedule(ctx, _ any) {
	s := ctx.(*stepper)
	s.k++
	s.eng.ScheduleCall(table3Delays[s.k%len(table3Delays)], reschedule, s, nil)
}

// BenchmarkEngineScheduleStep is the event queue's rung of the per-layer
// ladder: fire one event, which schedules its successor at a Table 3
// latency, at steady queue depths of 16, 256 and 4096. One op is a batch
// of stepBatch events, so the CI's single iteration still times
// thousands of them; ns/event is the per-event cost.
func BenchmarkEngineScheduleStep(b *testing.B) {
	const stepBatch = 1 << 14
	for _, depth := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			s := &stepper{eng: sim.NewEngine()}
			for i := range depth {
				s.eng.ScheduleCall(table3Delays[i%len(table3Delays)], reschedule, s, nil)
			}
			for b.Loop() {
				for range stepBatch {
					s.eng.Step()
				}
			}
			reportEventRate(b, stepBatch)
		})
	}
}

// BenchmarkProtocolHandoff measures the raw simulator: one contended
// block bouncing among 16 processors (an ablation of protocol overhead
// rather than a paper figure).
func BenchmarkProtocolHandoff(b *testing.B) {
	for _, proto := range []string{"DirectoryCMP", "HammerCMP", "TokenCMP-dst1"} {
		proto := proto
		b.Run(proto, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := machine.New(machine.Config{Protocol: proto, Geom: topo.NewGeometry(4, 4, 4), Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				lc := workload.DefaultLocking(2)
				lc.Acquires = 8
				progs, _ := workload.LockingPrograms(lc, 16, 1)
				if _, err := m.Run(progs, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMigratory quantifies the migratory-sharing
// optimization the paper highlights as a one-knob policy change (§5):
// OLTP runtime with and without it.
func BenchmarkAblationMigratory(b *testing.B) {
	b.ReportAllocs()
	run := func(disable bool) float64 {
		eng := sim.NewEngine()
		g := topo.NewGeometry(4, 4, 4)
		h := hier.Config{Geom: g, L1Size: 16 << 10, L2BankSize: 64 << 10}
		cfg := tokencmp.DefaultConfig(tokencmp.Dst1)
		cfg.DisableMigratory = disable
		sys := tokencmp.NewSystem(eng, h, cfg, network.Default())
		params := workload.OLTP()
		params.TxnsPerProc = 8
		progs, _ := workload.CommercialPrograms(params, g.TotalProcs(), 1)
		running := len(progs)
		for i := range progs {
			d, in := sys.Ports(i)
			p := &cpu.Processor{Eng: eng, Data: d, Inst: in, Prog: progs[i], Running: &running}
			p.Start()
		}
		eng.RunUntil(func() bool { return running == 0 }, 0)
		return float64(eng.Now())
	}
	for i := 0; i < b.N; i++ {
		with := run(false)
		without := run(true)
		if i == 0 {
			b.ReportMetric(without/with, "no-migratory-slowdown-x")
		}
	}
}
