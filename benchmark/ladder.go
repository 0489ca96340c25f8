package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"tokencmp/internal/cache"
	"tokencmp/internal/cpu"
	"tokencmp/internal/experiments"
	"tokencmp/internal/machine"
	"tokencmp/internal/mc"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
	"tokencmp/internal/simd"
	"tokencmp/internal/topo"
)

// The ladder times one operation of each layer in isolation, with a
// fixed operation count, so a change in a workload's time can be traced
// to the layer that moved. Each rung reports the median of three
// repetitions.
const ladderReps = 3

// sink keeps ladder results alive so the compiler cannot drop the
// measured calls.
var sink uint64

// nsPerOp times f(n) ladderReps times and returns the median ns per
// operation; setup, when not nil, runs untimed before every repetition.
func nsPerOp(n int, setup func(), f func(n int)) float64 {
	var xs []float64
	for range ladderReps {
		if setup != nil {
			setup()
		}
		start := time.Now()
		f(n)
		xs = append(xs, float64(time.Since(start))/float64(n))
	}
	return median(xs)
}

func scaled(n int, sz sizes) int { return max(1, int(float64(n)*sz.ladder)) }

// ladder runs every rung and returns the per-layer metrics it yields,
// keyed by name, plus the model-checker costs unattributed_frac needs.
func ladder(sz sizes) (map[string]metric, map[string]mcCosts, error) {
	out := make(map[string]metric)
	put := func(name string, v float64, unit string, n int) {
		out[name] = metric{name: name, value: v, unit: unit, n: n}
	}
	ladderSim(sz, put)
	ladderNetwork(sz, put)
	ladderCache(sz, put)
	if err := ladderProtocols(sz, put); err != nil {
		return nil, nil, err
	}
	costs, err := ladderMC(sz, put)
	if err != nil {
		return nil, nil, err
	}
	if err := ladderSimd(sz, put); err != nil {
		return nil, nil, err
	}
	return out, costs, nil
}

type putFunc func(name string, v float64, unit string, n int)

// ladderDelays are the simulator's fixed latencies (Table 3): L1, L2,
// on-chip link, memory controller, off-chip link, response hold, DRAM.
var ladderDelays = []sim.Time{sim.NS(2), sim.NS(7), sim.NS(2), sim.NS(6), sim.NS(20), sim.NS(30), sim.NS(80)}

type stepper struct {
	eng *sim.Engine
	k   int
}

// reschedule is an event that schedules its successor, so the queue
// depth stays constant while the engine steps.
func reschedule(ctx, _ any) {
	s := ctx.(*stepper)
	s.k++
	s.eng.ScheduleCall(ladderDelays[s.k%len(ladderDelays)], reschedule, s, nil)
}

// ladderSim times one ScheduleCall+Step at steady queue depths.
func ladderSim(sz sizes, put putFunc) {
	n := scaled(1<<20, sz)
	for _, depth := range []int{16, 256, 4096} {
		s := &stepper{eng: sim.NewEngine()}
		for i := range depth {
			s.eng.ScheduleCall(ladderDelays[i%len(ladderDelays)], reschedule, s, nil)
		}
		put(fmt.Sprintf("sim.sched_step_ns.d%d", depth), nsPerOp(n, nil, func(n int) {
			for range n {
				s.eng.Step()
			}
		}), "ns", n)
	}
}

type nopEndpoint struct{}

func (nopEndpoint) Recv(*network.Message) {}

// ladderNetwork times SendNew→deliver→reclaim on the target geometry.
func ladderNetwork(sz sizes, put putFunc) {
	eng := sim.NewEngine()
	nw := network.New(eng, geom, network.Default())
	for _, id := range geom.AllNodes() {
		nw.Attach(id, nopEndpoint{})
	}
	n := scaled(1<<19, sz)
	for _, c := range []struct {
		name     string
		dstCMP   int
		dstProcs int
	}{{"intra", 0, 1}, {"inter", 1, 0}} {
		src, dst := geom.L1DNode(0, 0), geom.L1DNode(c.dstCMP, c.dstProcs)
		put("network.send_deliver_ns."+c.name, nsPerOp(n, nil, func(n int) {
			for i := range n {
				nw.SendNew(network.Message{Src: src, Dst: dst, Block: mem.Block(i)})
				eng.Step()
			}
		}), "ns", n)
	}
	var l1d []topo.NodeID
	for c := range geom.CMPs {
		for p := range geom.ProcsPerCMP {
			l1d = append(l1d, geom.L1DNode(c, p))
		}
	}
	tmpl := network.Message{Src: geom.L2Node(0, 0)}
	nb := scaled(1<<15, sz)
	put(fmt.Sprintf("network.broadcast_ns.%d", len(l1d)), nsPerOp(nb, nil, func(n int) {
		for i := range n {
			tmpl.Block = mem.Block(i)
			nw.Broadcast(&tmpl, l1d)
			for eng.Step() {
			}
		}
	}), "ns", nb)
}

// ladderCache times lookups and installs on an L2 bank at the scaled
// commercial size and at the Table 3 size, plus building a Table 3 bank.
func ladderCache(sz sizes, put putFunc) {
	n := scaled(1<<20, sz)
	for _, c := range []struct {
		name string
		size int
	}{{"scaled", experiments.DefaultOptions().CommercialL2Bank}, {"table3", table3L2Bank}} {
		a := cache.New[uint64](cache.Params{SizeBytes: c.size, Ways: 4, BlockSize: mem.BlockSize})
		lines := a.Sets() * a.Ways()
		for b := range lines {
			a.Install(mem.Block(b))
		}
		// 7919 is odd and lines a power of two, so i*7919 mod lines
		// visits every resident block in a scattered order.
		put("cache.lookup_hit_ns."+c.name, nsPerOp(n, nil, func(n int) {
			for i := range n {
				if l := a.Lookup(mem.Block(i * 7919 % lines)); l != nil {
					sink += uint64(l.Block)
				}
			}
		}), "ns", n)
		put("cache.lookup_miss_ns."+c.name, nsPerOp(n, nil, func(n int) {
			for i := range n {
				if a.Lookup(mem.Block(lines+i%lines)) == nil {
					sink++
				}
			}
		}), "ns", n)
		next := 2 * lines
		put("cache.install_evict_ns."+c.name, nsPerOp(n, nil, func(n int) {
			for range n {
				_, ev, _, _ := a.Install(mem.Block(next))
				sink += uint64(ev)
				next++
			}
		}), "ns", n)
	}
	var xs []float64
	for range 9 {
		start := time.Now()
		a := cache.New[uint64](cache.Params{SizeBytes: table3L2Bank, Ways: 4, BlockSize: mem.BlockSize})
		xs = append(xs, ms(time.Since(start)))
		sink += uint64(a.Sets())
	}
	put("cache.new_ms.l2bank_table3", median(xs), "ms", len(xs))
}

// table3L2Bank is one bank of the 8 MB, four-bank Table 3 L2.
const table3L2Bank = (8 << 20) / 4

// ladderProtocols times, per protocol family, one L1 hit and one
// remote miss through the processor port (stepping the engine until the
// access completes) and building a machine at the Table 3 sizes.
func ladderProtocols(sz sizes, put putFunc) error {
	opt := experiments.DefaultOptions()
	for _, p := range []struct{ layer, proto string }{
		{"directory", "DirectoryCMP"}, {"hammercmp", "HammerCMP"}, {"tokencmp", "TokenCMP-dst1"},
	} {
		m, err := machine.New(machine.Config{Protocol: p.proto, Geom: geom, Seed: 1,
			L1Size: opt.CommercialL1, L2BankSize: opt.CommercialL2Bank})
		if err != nil {
			return err
		}
		near, _ := m.Proto.Ports(geom.GlobalProc(0, 0))
		far, _ := m.Proto.Ports(geom.GlobalProc(1, 0))
		done := false
		complete := func(uint64) { done = true }
		var stuck error
		access := func(port cpu.MemPort, kind cpu.AccessKind, a mem.Addr) {
			done = false
			port.Access(kind, a, 1, complete)
			for !done && m.Eng.Step() {
			}
			if !done && stuck == nil {
				stuck = fmt.Errorf("%s: access to %#x never completed", p.proto, a)
			}
		}
		const hitAddr, missAddr mem.Addr = 0x1000, 0x2000
		access(near, cpu.Load, hitAddr)
		n := scaled(1<<17, sz)
		put(p.layer+".l1_hit_ns", nsPerOp(n, nil, func(n int) {
			for range n {
				access(near, cpu.Load, hitAddr)
			}
		}), "ns", n)
		// Stores alternating between two chips move the block across the
		// global interconnect on every access; a simulated latency below
		// two off-chip link crossings would mean the rung missed its target.
		ports := [2]cpu.MemPort{near, far}
		nm := scaled(1<<13, sz)
		simStart := m.Eng.Now()
		put(p.layer+".remote_miss_ns", nsPerOp(nm, nil, func(n int) {
			for i := range n {
				access(ports[i%2], cpu.Store, missAddr)
			}
		}), "ns", nm)
		if stuck != nil {
			return stuck
		}
		per := (m.Eng.Now() - simStart) / sim.Time(ladderReps*nm)
		if per < 2*network.Default().OffChip.Latency {
			return fmt.Errorf("%s: remote store took %v simulated, less than two off-chip crossings", p.proto, per)
		}
		put(p.layer+".remote_miss_sim_ns", float64(per)/float64(sim.Nanosecond), "ns", ladderReps*nm)

		var xs []float64
		for range 7 {
			start := time.Now()
			if _, err := machine.New(machine.Config{Protocol: p.proto, Geom: geom, Seed: 1}); err != nil {
				return err
			}
			xs = append(xs, ms(time.Since(start)))
		}
		put("machine.new_ms."+p.proto, median(xs), "ms", len(xs))
	}
	return nil
}

// mcCosts are one model's ladder costs, in ns.
type mcCosts struct{ expand, canon, invariant float64 }

// ladderMC replays the first BFS states of each model of the modelcheck
// workload and times their expansion, the canonicalization of their
// successors (symmetric models only), and the invariant check.
func ladderMC(sz sizes, put putFunc) (map[string]mcCosts, error) {
	limit := scaled(20000, sz)
	costs := make(map[string]mcCosts)
	for _, u := range mcModels(sz) {
		m := u.build()
		init := m.Initial()
		width := len(init[0])
		var canon *mc.Canonicalizer
		if s, ok := m.(mc.Symmetric); ok && u.symmetry && s.Symmetry() != nil {
			canon = s.Symmetry().NewCanonicalizer(width)
		}
		seen := make(map[string]bool)
		var states []string
		add := func(key []byte) {
			if canon != nil {
				canon.Canonicalize(key)
			}
			if k := string(key); !seen[k] {
				seen[k] = true
				states = append(states, k)
			}
		}
		for _, s := range init {
			add([]byte(s))
		}
		var sb mc.SuccBuf
		for i := 0; i < len(states) && len(states) < limit; i++ {
			sb.Reset()
			m.Successors(states[i], &sb)
			for j := 0; j < sb.Len() && len(states) < limit; j++ {
				add(sb.Key(j))
			}
		}
		n := len(states)

		var c mcCosts
		c.expand = nsPerOp(n, nil, func(int) {
			for _, s := range states {
				sb.Reset()
				m.Successors(s, &sb)
			}
		})
		put("mc.expand_ns_per_state."+u.id, c.expand, "ns", n)
		if canon != nil {
			var flat []byte
			for _, s := range states {
				sb.Reset()
				m.Successors(s, &sb)
				for j := range sb.Len() {
					flat = append(flat, sb.Key(j)...)
				}
			}
			work := make([]byte, len(flat))
			keys := len(flat) / width
			c.canon = nsPerOp(keys, func() { copy(work, flat) }, func(int) {
				for k := 0; k < len(work); k += width {
					canon.Canonicalize(work[k : k+width])
				}
			})
			put("mc.canon_ns_per_succ."+u.id, c.canon, "ns", keys)
		}
		var bad error
		c.invariant = nsPerOp(n, nil, func(int) {
			for _, s := range states {
				if err := m.Check(s); err != nil && bad == nil {
					bad = fmt.Errorf("%s: invariant: %w", u.id, err)
				}
			}
		})
		if bad != nil {
			return nil, bad
		}
		put("mc.invariant_ns_per_state."+u.id, c.invariant, "ns", n)
		costs[u.id] = c
	}
	return costs, nil
}

// ladderSimd times the daemon's request key, a warm cache hit, and a
// warm hit through the whole HTTP handler.
func ladderSimd(sz sizes, put putFunc) error {
	base := simd.Request{Protocol: "TokenCMP-dst1", Workload: "locking", Locks: 8, Acquires: 4}
	n := scaled(1<<18, sz)
	var bad error
	put("simd.key_ns", nsPerOp(n, nil, func(n int) {
		for range n {
			r := base
			r.Normalize()
			if err := r.Validate(false); err != nil && bad == nil {
				bad = err
			}
			sink += uint64(len(r.Key()))
		}
	}), "ns", n)
	if bad != nil {
		return bad
	}

	ctx := context.Background()
	c := simd.NewCache(64, time.Hour, ctx, nil)
	body := []byte(`{"ladder":"warm"}`)
	fn := func(context.Context) ([]byte, error) { return body, nil }
	put("simd.cache_hit_ns", nsPerOp(n, nil, func(n int) {
		for range n {
			b, err := c.Do(ctx, "warm", fn)
			if err != nil && bad == nil {
				bad = err
			}
			sink += uint64(len(b))
		}
	}), "ns", n)
	if bad != nil {
		return bad
	}

	d, err := simd.New(simd.Config{})
	if err != nil {
		return err
	}
	defer d.Close()
	h := d.Handler()
	reqBody := `{"protocol":"TokenCMP-dst1","workload":"locking","locks":8,"acquires":4}`
	serve := func(want string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(reqBody)))
		if got := rec.Header().Get("X-Simd-Cache"); (rec.Code != http.StatusOK || got != want) && bad == nil {
			bad = fmt.Errorf("simd handler: status %d cache %q, want 200 %q", rec.Code, got, want)
		}
	}
	serve("miss")
	nh := scaled(1<<14, sz)
	put("simd.handler_hit_us", nsPerOp(nh, nil, func(n int) {
		for range n {
			serve("hit")
		}
	})/1e3, "us", nh)
	return bad
}
