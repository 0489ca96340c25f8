// Command benchmark measures the simulator, the model checker and the
// simd daemon end to end on four workloads, checks that every simulated
// output is unchanged, and, in a separate traced run, breaks the time
// down by layer. See README.md for the metrics and how to run it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"tokencmp/internal/machine"
	"tokencmp/internal/mc"
)

// workloadNames lists the workloads in the order traced runs cover them.
var workloadNames = []string{"commercial", "locking", "modelcheck", "serve"}

// sizes fixes how much work each unit, pass and ladder step does.
type sizes struct {
	txns, commercialSeeds  int     // commercial: transactions per processor, seeds per cell
	acquires, lockingSeeds int     // locking: acquires per processor, seeds per cell
	mcCaches               int     // modelcheck: caches in every model
	mcArbTokens            int     // modelcheck: tokens in the arbiter model
	mcDstTokens            int     // modelcheck: tokens in the distributed model
	requests               int     // serve: requests per pass
	setupRounds            int     // set-ups per run; setup_s is their median
	ladder                 float64 // scales every ladder rung's operation count
}

// fullSizes is what the benchmark measures. One pass takes 0.5 to 2 s
// of wall time (commercial about 4 s), so a 20 s run holds several
// passes and about a hundred units or more.
var fullSizes = sizes{
	txns: 10, commercialSeeds: 3,
	acquires: 32, lockingSeeds: 4,
	mcCaches: 3, mcArbTokens: 4, mcDstTokens: 3,
	requests:    96,
	setupRounds: 9,
	ladder:      1,
}

// bench is one workload: a fixed list of units (simulation runs, model
// checks or requests) that every pass runs once.
type bench interface {
	// setup constructs what the passes need and runs one unit untimed.
	setup(tr *tracer, parent int64) error
	// pass runs every unit once.
	pass(tr *tracer, parent int64) (passResult, error)
}

// passResult is one pass: its units' results, index-aligned with the
// unit list, and the pass's host wall and CPU seconds.
type passResult struct {
	units     []unitResult
	wall, cpu float64
}

func newBench(name string, seed int64, sz sizes) (bench, error) {
	switch name {
	case "commercial":
		return commercialWorkload(seed, sz), nil
	case "locking":
		return lockingWorkload(seed, sz), nil
	case "modelcheck":
		return modelcheckWorkload(sz), nil
	case "serve":
		return serveWorkloadFor(seed, sz.requests), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want commercial, locking, modelcheck or serve)", name)
}

// unitResult is the outcome of one unit.
type unitResult struct {
	id     string
	ms     float64 // host wall milliseconds, end to end
	cpuMS  float64 // host CPU milliseconds attributed to the unit (see cpuMeter)
	work   float64 // simulated events, checked states, or one request
	digest string  // fingerprint of the unit's output
	err    error

	// Simulation runs.
	proto               string
	newMS, genMS, runMS float64
	res                 machine.Result

	// Model checks.
	mc         *mc.Result
	allocBytes uint64 // bytes allocated by the check (traced runs only)

	// Requests.
	hit bool
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metric is one reported number with its sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// report is what one invocation prints.
type report struct {
	metrics   []metric
	attempted int
	failed    int
}

func (r *report) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, n: n})
}

func main() {
	runtime.GOMAXPROCS(jobs)
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark compare:", err)
			os.Exit(2)
		}
		return
	}
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	name := fs.String("workload", "", "workload to measure: commercial, locking, modelcheck or serve")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "host seconds of passes to measure")
	trace := fs.Int("trace", 0, "1: run one traced pass of every workload plus the layer ladder and report per-layer metrics")
	out := fs.String("out", "benchmark/out", "directory for traces and CPU profiles")
	update := fs.Bool("update", false, "rewrite the workload's seed-1 output pins from one pass")
	fs.Parse(os.Args[1:])

	if _, err := newBench(*name, *seed, fullSizes); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	var (
		rep report
		err error
	)
	switch {
	case *update:
		err = updatePins(*name, fullSizes)
		if err == nil {
			fmt.Println("wrote", pinPath(*name))
			return
		}
	case *trace == 1:
		rep, err = traced(os.Stdout, *seed, fullSizes, *out)
	case *trace == 0:
		rep, err = measure(os.Stdout, *name, *seed, time.Duration(*seconds*float64(time.Second)), fullSizes)
	default:
		err = errors.New("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := printReport(os.Stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// measure is the end-to-end run: set up several times, then run whole
// passes until budget (wall time) has passed, then check the outputs.
// Every time it reports is host CPU time (see processCPU) converted to
// the reference machine's speed (see calibrate). The machine's speed
// drifts over seconds, so a calibration runs before the first set-up and
// after every set-up and pass, and each set-up or pass is scaled by the
// mean of the two calibrations around it.
func measure(w io.Writer, name string, seed int64, budget time.Duration, sz sizes) (report, error) {
	var rep report
	var b bench
	speeds := []float64{calibrate()}
	around := func() float64 { return (speeds[len(speeds)-2] + speeds[len(speeds)-1]) / 2 }
	var setups []float64
	for range sz.setupRounds {
		debug.FreeOSMemory() // start from an empty heap, as every pass does
		cpu := processCPU()
		var err error
		if b, err = newBench(name, seed, sz); err != nil {
			return rep, err
		}
		if err := b.setup(nil, 0); err != nil {
			return rep, fmt.Errorf("setup: %w", err)
		}
		d := processCPU() - cpu
		speeds = append(speeds, calibrate())
		setups = append(setups, d.Seconds()*around())
	}

	var passes []passResult
	var rss, rates, lat []float64
	for start := time.Now(); len(passes) == 0 || time.Since(start) < budget; {
		resetPeakRSS()
		p, err := b.pass(nil, 0)
		if err != nil {
			return rep, fmt.Errorf("pass %d: %w", len(passes)+1, err)
		}
		peak, err := peakRSSMB()
		if err != nil {
			return rep, err
		}
		speeds = append(speeds, calibrate())
		s := around()
		passes = append(passes, p)
		rss = append(rss, peak)
		work := 0.0
		for _, u := range p.units {
			lat = append(lat, u.cpuMS*s)
			work += u.work
		}
		rates = append(rates, work/(p.cpu*s))
	}

	expect, err := expected(name, seed, passes[0].units)
	if err != nil {
		return rep, err
	}
	for _, p := range passes {
		rep.attempted += len(p.units)
		rep.failed += verify(p.units, expect)
	}
	if sw, ok := b.(*simWorkload); ok {
		units := sw.checkPass()
		rep.attempted += len(units)
		rep.failed += verify(units, expect)
	}

	lo, mid, hi := quartiles(speeds)
	fmt.Fprintf(w, "machine speed %.4f (quartiles %.4f-%.4f of %d calibrations; measured CPU x speed = reported)\n", mid, lo, hi, len(speeds))
	p50, _ := percentile(lat, 0.5)
	p90, ok := percentile(lat, 0.9)
	if !ok {
		fmt.Fprintf(w, "note: unit_cpu_ms_p90 rests on %d samples, fewer than %d above it\n", len(lat), minTail)
	}
	rep.add("setup_s", median(setups), "s", len(setups))
	rep.add("work_per_cpu_s", median(rates), "1/s", len(rates))
	rep.add("unit_cpu_ms_p50", p50, "ms", len(lat))
	rep.add("unit_cpu_ms_p90", p90, "ms", len(lat))
	rep.add("peak_rss_mb", median(rss), "MB", len(rss))
	return rep, nil
}

// verify counts the units that failed or whose output differs from the
// expected digests, printing the first few to standard error.
func verify(units []unitResult, expect map[string]string) int {
	failed := 0
	for _, u := range units {
		var err error
		switch want, ok := expect[u.id]; {
		case u.err != nil:
			err = u.err
		case !ok:
			err = fmt.Errorf("%s: no expected output", u.id)
		case u.digest != want:
			err = fmt.Errorf("%s: output %s, want %s", u.id, u.digest, want)
		}
		if err != nil {
			if failed < 10 {
				fmt.Fprintln(os.Stderr, "FAIL", err)
			}
			failed++
		}
	}
	return failed
}

// printReport prints each metric on a line of its own, then the result
// as one JSON object on the last line.
func printReport(w io.Writer, rep report) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(rep.metrics))
	for _, m := range rep.metrics {
		fmt.Fprintf(w, "%-48s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		metrics[m.name] = value{m.value, m.unit}
	}
	return json.NewEncoder(w).Encode(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
}
