package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"

	"tokencmp/internal/cpu"
	"tokencmp/internal/experiments"
	"tokencmp/internal/machine"
	"tokencmp/internal/runner"
	"tokencmp/internal/stats"
	"tokencmp/internal/topo"
	"tokencmp/internal/workload"
)

// jobs is the load shape of every workload: two simulation runs, two
// checker workers, or two client connections at a time, matching the
// two CPUs the benchmark is sized for.
const jobs = 2

// geom is the paper's target system: four CMPs of four processors and
// four L2 banks each.
var geom = topo.NewGeometry(4, 4, 4)

// simUnit is one (protocol, configuration, seed) simulation run.
type simUnit struct {
	id     string
	proto  string
	seed   int64
	l1, l2 int // cache-size overrides; 0 keeps Table 3
	progs  func(seed int64) ([]cpu.Program, *workload.LockMonitor)
}

// simWorkload runs a fixed list of simulation runs per pass through the
// experiments' worker pool, exactly as the figure sweeps do.
type simWorkload struct {
	units  []simUnit
	protos []string // distinct protocols, in unit order
	check  bool     // serial-view monitor and token audit on
}

// commercialWorkload builds the Figure 6/7 cells: every commercial
// surrogate on every protocol of the figures, over seeds seed..seed+2,
// at the scaled cache sizes the figures use.
func commercialWorkload(seed int64, sz sizes) *simWorkload {
	opt := experiments.DefaultOptions()
	w := &simWorkload{protos: []string{"DirectoryCMP", "HammerCMP", "TokenCMP-dst1", "PerfectL2"}}
	for _, wl := range []string{"OLTP", "Apache", "SPECjbb"} {
		params, err := experiments.CommercialParamsFor(wl)
		if err != nil {
			panic(err) // the names above are the package's own
		}
		params.TxnsPerProc = sz.txns
		for _, proto := range w.protos {
			for s := seed; s < seed+int64(sz.commercialSeeds); s++ {
				w.units = append(w.units, simUnit{
					id:    fmt.Sprintf("%s/%s/s%d", wl, proto, s-seed+1),
					proto: proto, seed: s, l1: opt.CommercialL1, l2: opt.CommercialL2Bank,
					progs: func(s int64) ([]cpu.Program, *workload.LockMonitor) {
						return workload.CommercialPrograms(params, geom.TotalProcs(), s)
					},
				})
			}
		}
	}
	return w
}

// lockingWorkload builds the Figure 2/3 sweep: every protocol of both
// figures at 2, 32 and 512 locks, over seeds seed..seed+3, at the
// Table 3 cache sizes.
func lockingWorkload(seed int64, sz sizes) *simWorkload {
	w := &simWorkload{protos: []string{"TokenCMP-arb0", "DirectoryCMP", "DirectoryCMP-zero", "HammerCMP",
		"TokenCMP-dst0", "TokenCMP-dst4", "TokenCMP-dst1", "TokenCMP-dst1-pred"}}
	for _, proto := range w.protos {
		for _, locks := range []int{2, 32, 512} {
			lc := workload.DefaultLocking(locks)
			lc.Acquires = sz.acquires
			for s := seed; s < seed+int64(sz.lockingSeeds); s++ {
				w.units = append(w.units, simUnit{
					id:    fmt.Sprintf("%s/l%d/s%d", proto, locks, s-seed+1),
					proto: proto, seed: s,
					progs: func(s int64) ([]cpu.Program, *workload.LockMonitor) {
						return workload.LockingPrograms(lc, geom.TotalProcs(), s)
					},
				})
			}
		}
	}
	return w
}

// setup constructs one machine of every protocol the pass uses, then
// runs the first unit untimed.
func (w *simWorkload) setup(tr *tracer, parent int64) error {
	u := w.units[0]
	for _, proto := range w.protos {
		sp := tr.begin("machine.new "+proto, parent)
		_, err := machine.New(machine.Config{Protocol: proto, Geom: geom, Seed: u.seed, L1Size: u.l1, L2BankSize: u.l2})
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return w.run(u, &cpuMeter{}, tr, parent).err
}

// pass runs every unit once, two at a time.
func (w *simWorkload) pass(tr *tracer, parent int64) (passResult, error) {
	p := passResult{units: make([]unitResult, len(w.units))}
	m := &cpuMeter{}
	cpu := processCPU()
	sp := tr.begin("pass", parent)
	runner.New(jobs).Run(len(w.units), func(i int) error {
		p.units[i] = w.run(w.units[i], m, tr, sp.id)
		return nil
	})
	p.wall = tr.end(sp).Seconds()
	p.cpu = (processCPU() - cpu).Seconds()
	return p, nil
}

// run executes one unit the way the experiments package does: build the
// machine, generate the programs, run to completion.
func (w *simWorkload) run(u simUnit, m *cpuMeter, tr *tracer, parent int64) (r unitResult) {
	r = unitResult{id: u.id, proto: u.proto}
	sp := tr.begin("run "+u.id, parent)
	share := m.begin()
	defer func() {
		r.cpuMS = ms(m.end(share))
		r.ms = ms(tr.end(sp))
	}()

	ns := tr.begin("machine.new", sp.id)
	mach, err := machine.New(machine.Config{Protocol: u.proto, Geom: geom, Seed: u.seed,
		CheckConsistency: w.check, L1Size: u.l1, L2BankSize: u.l2})
	r.newMS = ms(tr.end(ns))
	if err != nil {
		r.err = err
		return
	}
	gs := tr.begin("workload.gen", sp.id)
	progs, mon := u.progs(u.seed)
	r.genMS = ms(tr.end(gs))
	rs := tr.begin("machine.run", sp.id)
	res, err := mach.RunCtx(context.Background(), progs, 0)
	r.runMS = ms(tr.end(rs))
	switch {
	case err != nil:
		r.err = fmt.Errorf("%s: %w", u.id, err)
	case len(mon.Violations) > 0:
		r.err = fmt.Errorf("%s: mutual exclusion: %s", u.id, mon.Violations[0])
	}
	r.res = res
	r.work = float64(res.Events)
	r.digest = simDigest(res)
	if w.check && r.err == nil {
		r.err = auditAtQuiescence(mach)
	}
	return
}

// auditAtQuiescence drains the events still pending when the last
// processor finished, then runs the token-conservation audit. The audit
// counts tokens in caches, memories and the network, so it only holds
// once no message waits in a delayed send: machine.Config.AuditTokens
// audits before the drain and reports such tokens as lost.
func auditAtQuiescence(m *machine.Machine) error {
	a, ok := m.Proto.(interface{ TokenAudit() error })
	if !ok {
		return nil
	}
	m.Eng.Run(0)
	return a.TokenAudit()
}

// simDigest fingerprints every simulated statistic of a run: runtime,
// events, misses, persistent requests, traffic totals per level, and
// the full counter snapshot. A change that only speeds the simulator up
// must leave it unchanged.
func simDigest(r machine.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "runtime=%d events=%d misses=%d persistent=%d", r.Runtime, r.Events, r.Misses, r.Persistent)
	for _, lvl := range []stats.Level{stats.IntraCMP, stats.InterCMP} {
		fmt.Fprintf(&b, " bytes%d=%d msgs%d=%d", lvl, r.Traffic.TotalBytes(lvl), lvl, r.Traffic.TotalMessages(lvl))
	}
	names := make([]string, 0, len(r.Counters))
	for k := range r.Counters {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Fprintf(&b, " %s=%d", k, r.Counters[k])
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// checkPass reruns the pass with the serial-view monitor on and the
// token audit after each run. The monitor observes without scheduling
// events, so every digest must also equal the unmonitored one.
func (w *simWorkload) checkPass() []unitResult {
	w.check = true
	defer func() { w.check = false }()
	p, _ := w.pass(nil, 0)
	return p.units
}
