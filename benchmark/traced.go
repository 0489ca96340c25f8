package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"tokencmp/internal/counters"
	"tokencmp/internal/stats"
)

// traced runs the layer ladder, then for every workload an untraced, a
// traced and another untraced pass, and reports the per-layer metrics.
// The traced pass also writes trace-<workload>.json (Chrome trace-event
// format) and cpu-<workload>.pprof to outDir. End-to-end metrics never
// come from this run.
func traced(w io.Writer, seed int64, sz sizes, outDir string) (report, error) {
	var rep report
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return rep, err
	}
	rungs, costs, err := ladder(sz)
	if err != nil {
		return rep, fmt.Errorf("ladder: %w", err)
	}
	for _, name := range workloadNames {
		b, err := newBench(name, seed, sz)
		if err != nil {
			return rep, err
		}
		if err := b.setup(nil, 0); err != nil {
			return rep, fmt.Errorf("%s setup: %w", name, err)
		}
		// The tracing overhead is measured against the mean of the
		// untraced passes on either side, which cancels a steady drift
		// in the machine's speed.
		var passes [3]passResult
		var spans []span
		for i := range passes {
			debug.FreeOSMemory() // every pass starts as measure's do
			if i == 1 {
				passes[i], spans, err = profiledPass(b, name, outDir)
			} else {
				passes[i], err = b.pass(nil, 0)
			}
			if err != nil {
				return rep, fmt.Errorf("%s: %w", name, err)
			}
		}
		printSelfTimes(w, name, spans)

		expect, err := expected(name, seed, passes[0].units)
		if err != nil {
			return rep, err
		}
		for _, p := range passes {
			rep.attempted += len(p.units)
			rep.failed += verify(p.units, expect)
		}
		units, wall := passes[1].units, passes[1].wall
		switch name {
		case "commercial":
			simLayers(&rep, name, units, wall, []string{"DirectoryCMP", "HammerCMP", "TokenCMP-dst1", "PerfectL2"}, true)
		case "locking":
			simLayers(&rep, name, units, wall, []string{"DirectoryCMP", "HammerCMP", "TokenCMP-arb0", "TokenCMP-dst1"}, false)
		case "modelcheck":
			mcLayers(&rep, units, costs)
		case "serve":
			serveLayers(&rep, units)
		}
		rep.add(name+".trace.overhead_frac", 2*passes[1].cpu/(passes[0].cpu+passes[2].cpu)-1, "ratio", 2)
	}
	names := make([]string, 0, len(rungs))
	for k := range rungs {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		rep.metrics = append(rep.metrics, rungs[k])
	}
	return rep, nil
}

// profiledPass runs one pass with spans and the CPU profile on, writes
// cpu-<name>.pprof and trace-<name>.json to outDir, and returns the pass
// and its spans.
func profiledPass(b bench, name, outDir string) (passResult, []span, error) {
	prof, err := os.Create(filepath.Join(outDir, "cpu-"+name+".pprof"))
	if err != nil {
		return passResult{}, nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return passResult{}, nil, err
	}
	tr := newTracer()
	root := tr.begin("workload "+name, 0)
	p, err := b.pass(tr, root.id)
	tr.end(root)
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return p, nil, err
	}
	spans := tr.snapshot()
	if err := checkNesting(spans); err != nil {
		return p, nil, err
	}
	return p, spans, writeTrace(filepath.Join(outDir, "trace-"+name+".json"), spans)
}

func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes prints the traced pass's self time by span kind (the
// span name up to its first space), largest first.
func printSelfTimes(w io.Writer, name string, spans []span) {
	self := selfTimes(spans)
	byKind := make(map[string]time.Duration)
	var total time.Duration
	for _, s := range spans {
		kind, _, _ := strings.Cut(s.Name, " ")
		byKind[kind] += self[s.ID]
		total += self[s.ID]
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	slices.SortFunc(kinds, func(a, b string) int { return int(byKind[b] - byKind[a]) })
	for _, k := range kinds {
		fmt.Fprintf(w, "self-time %-10s %-28s %10.1f ms %5.1f%%\n", name, k, ms(byKind[k]), 100*float64(byKind[k])/float64(total))
	}
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// simLayers derives the simulation workloads' per-layer metrics from a
// traced pass: where unit time goes (machine construction, program
// generation, the run), host time per simulated event by protocol, and,
// for commercial, the protocol statistics that drive the event counts.
func simLayers(rep *report, name string, units []unitResult, wall float64, protos []string, commercial bool) {
	var busy, setup float64
	var newMS, genMS, runMS []float64
	for _, u := range units {
		busy += u.ms
		setup += u.newMS + u.genMS
		newMS = append(newMS, u.newMS)
		genMS = append(genMS, u.genMS)
		runMS = append(runMS, u.runMS)
	}
	n := len(units)
	rep.add(name+".runner.busy_frac", busy/(jobs*wall*1e3), "ratio", n)
	rep.add(name+".machine.new_ms_p50", median(newMS), "ms", n)
	rep.add(name+".workload.gen_ms_p50", median(genMS), "ms", n)
	rep.add(name+".machine.run_ms_p50", median(runMS), "ms", n)
	rep.add(name+".machine.setup_share", setup/busy, "ratio", n)

	type sums struct {
		runNS, events, misses, persistent, interBytes float64
		units                                         int
		ctr                                           map[string]uint64
	}
	by := make(map[string]*sums)
	for _, u := range units {
		s := by[u.proto]
		if s == nil {
			s = &sums{ctr: make(map[string]uint64)}
			by[u.proto] = s
		}
		s.units++
		s.runNS += u.runMS * 1e6
		s.events += float64(u.res.Events)
		s.misses += float64(u.res.Misses)
		s.persistent += float64(u.res.Persistent)
		s.interBytes += float64(u.res.Traffic.TotalBytes(stats.InterCMP))
		counters.MergeInto(s.ctr, u.res.Counters)
	}
	get := func(p string) *sums {
		if s := by[p]; s != nil {
			return s
		}
		return &sums{ctr: map[string]uint64{}}
	}
	for _, p := range protos {
		s := get(p)
		rep.add(name+".sim.ns_per_event."+p, ratio(s.runNS, s.events), "ns", s.units)
		rep.add(name+".sim.events."+p, s.events, "count", s.units)
	}
	dst1 := get("TokenCMP-dst1")
	rep.add(name+".tokencmp.persistent_frac.TokenCMP-dst1", ratio(dst1.persistent, dst1.misses), "ratio", dst1.units)
	if !commercial {
		dst4 := get("TokenCMP-dst4")
		rep.add(name+".tokencmp.retry_frac.TokenCMP-dst4",
			ratio(float64(dst4.ctr[counters.ReqRetry]), float64(dst4.ctr[counters.ReqTransient])), "ratio", dst4.units)
		return
	}
	for _, p := range protos {
		s := get(p)
		hits, misses := float64(s.ctr[counters.L1Hit]), float64(s.ctr[counters.L1Miss])
		rep.add(name+".cache.l1_miss_ratio."+p, ratio(misses, hits+misses), "ratio", s.units)
	}
	for _, p := range []string{"DirectoryCMP", "HammerCMP", "TokenCMP-dst1"} {
		s := get(p)
		msgs := float64(s.ctr[counters.NetMsgIntraCMP] + s.ctr[counters.NetMsgInterCMP])
		rep.add(name+".network.inter_bytes."+p, s.interBytes, "B", s.units)
		rep.add(name+".network.msgs_per_miss."+p, ratio(msgs, s.misses), "ratio", s.units)
	}
	ham, dir := get("HammerCMP"), get("DirectoryCMP")
	rep.add(name+".hammercmp.probes_per_miss", ratio(float64(ham.ctr[counters.ProbeSent]), ham.misses), "ratio", ham.units)
	rep.add(name+".directory.fwd_per_miss", ratio(float64(dir.ctr[counters.FwdSent]), dir.misses), "ratio", dir.units)
}

// mcLayers reports each model's counts and throughput from the traced
// pass, its allocation per state, and the share of the two workers'
// time the ladder's expand, canonicalize and invariant costs leave
// unexplained: the state table, the frontier, and the starvation pass.
func mcLayers(rep *report, units []unitResult, costs map[string]mcCosts) {
	for _, u := range units {
		r, c := u.mc, costs[u.id]
		states, trans := float64(r.States), float64(r.Transitions)
		explained := c.expand*states + c.invariant*states
		if r.Symmetry {
			explained += c.canon * trans
		}
		rep.add("mc.states."+u.id, states, "count", 1)
		rep.add("mc.transitions."+u.id, trans, "count", 1)
		rep.add("mc.states_per_s."+u.id, states/(u.ms/1e3), "1/s", 1)
		rep.add("mc.alloc_bytes_per_state."+u.id, float64(u.allocBytes)/states, "B", 1)
		rep.add("mc.unattributed_frac."+u.id, 1-explained/(jobs*u.ms*1e6), "ratio", 1)
	}
}

// serveLayers splits request latency by cache outcome.
func serveLayers(rep *report, units []unitResult) {
	var hit, miss []float64
	for _, u := range units {
		if u.hit {
			hit = append(hit, u.ms)
		} else {
			miss = append(miss, u.ms)
		}
	}
	p90, _ := percentile(miss, 0.9)
	rep.add("simd.hit_frac", float64(len(hit))/float64(len(units)), "ratio", len(units))
	rep.add("simd.hit_ms_p50", median(hit), "ms", len(hit))
	rep.add("simd.miss_ms_p50", median(miss), "ms", len(miss))
	rep.add("simd.miss_ms_p90", p90, "ms", len(miss))
}
