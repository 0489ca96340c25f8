// benchjson converts `go test -bench` output into a JSON benchmark
// artifact (for CI upload and perf-trajectory tracking) and prints a
// human-readable runtime summary table. Its compare mode diffs two
// such artifacts and gates CI on perf regressions.
//
// Usage:
//
//	go test -bench . -benchtime 1x -run '^$' . | tee bench.txt
//	benchjson -in bench.txt -out BENCH_ci.json
//	benchjson -out BENCH_merged.json merge RUN1.json RUN2.json ...
//	benchjson compare BENCH_ci.json BENCH_new.json   # exit 1 on regression
//
// Compare prints per-metric deltas for every benchmark the two
// artifacts share and exits non-zero when wall clock (ns/op) worsens or
// checker throughput (states/sec) drops — the two series that gate the
// perf trajectory; the other metrics are informational. The gate is
// distribution-aware, failing only values beyond -sigma standard
// deviations of the baseline mean (with -sigma-floor percent of the mean
// as the minimum sigma, so a degenerate distribution — a single-run
// baseline, or runs that agreed exactly — cannot fail on jitter).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line. The three standard
// series (wall clock, bytes, allocations per op) are first-class fields
// so the perf trajectory can be charted without knowing each
// benchmark's custom metric names; Metrics additionally holds every
// (value, unit) pair verbatim, the standard three included.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics"`
}

// Report is the BENCH_ci.json artifact shape.
type Report struct {
	Context    map[string]string `json:"context"`
	Benchmarks []Benchmark       `json:"benchmarks"`
}

// parse reads `go test -bench` output. Benchmark lines look like
//
//	BenchmarkName-8   1   123456 ns/op   1.5 some/metric
//
// i.e. name, iteration count, then (value, unit) pairs; context lines
// (goos, goarch, pkg, cpu) are captured verbatim.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Context: map[string]string{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				rep.Context[key] = v
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // "Benchmark..." headers without results
		}
		b := Benchmark{
			Name:       strings.TrimSuffix(strings.TrimPrefix(fields[0], "Benchmark"), cpuSuffix(fields[0])),
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad value %q in %q", fields[i], line)
			}
			b.Metrics[fields[i+1]] = v
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// cpuSuffix returns the trailing "-N" GOMAXPROCS suffix of a benchmark
// name, or "" if absent.
func cpuSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return ""
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return ""
	}
	return name[i:]
}

// summarize prints the runtime table: one row per benchmark with its
// wall time, allocation profile, and the count of extra reported
// metrics.
func summarize(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "%-40s %14s %14s %12s %8s\n", "benchmark", "time/op (ms)", "B/op", "allocs/op", "metrics")
	total := 0.0
	for _, b := range rep.Benchmarks {
		ms := b.NsPerOp / 1e6
		total += ms
		custom := 0
		for k := range b.Metrics {
			if k != "ns/op" && k != "B/op" && k != "allocs/op" {
				custom++
			}
		}
		fmt.Fprintf(w, "%-40s %14.1f %14.0f %12.0f %8d\n",
			b.Name, ms, b.BytesPerOp, b.AllocsPerOp, custom)
	}
	fmt.Fprintf(w, "%-40s %14.1f\n", "TOTAL", total)

	fmt.Fprintln(w, "\nheadline metrics:")
	for _, b := range rep.Benchmarks {
		keys := make([]string, 0, len(b.Metrics))
		for k := range b.Metrics {
			if k != "ns/op" && k != "B/op" && k != "allocs/op" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-38s %-24s %10.3f\n", b.Name, k, b.Metrics[k])
		}
	}
}

// loadReport reads a BENCH_ci.json artifact.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("benchjson: %s: %v", path, err)
	}
	return rep, nil
}

// delta is one compared metric.
type delta struct {
	bench, metric string
	old, new      float64
	pct           float64 // percentage change, new vs old
	regression    bool
}

// gatedMetrics are the series whose regressions (and disappearance)
// fail the compare gate; everything else is informational.
var gatedMetrics = []string{"ns/op", "states/sec"}

func compareMain(oldPath, newPath string, kSigma, sigmaFloor float64) {
	newRep, err := loadReport(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	base, err := loadAny(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	deltas, added, dropped := compareDist(base, newRep, kSigma, sigmaFloor)
	gate := fmt.Sprintf("%.1f sigma of the %d-run baseline", kSigma, base.Runs)
	fmt.Printf("%-40s %-24s %14s %14s %9s\n", "benchmark", "metric", "old", "new", "delta")
	regressions := 0
	for _, d := range deltas {
		mark := ""
		if d.regression {
			mark = "  << REGRESSION"
			regressions++
		}
		fmt.Printf("%-40s %-24s %14.3f %14.3f %+8.1f%%%s\n", d.bench, d.metric, d.old, d.new, d.pct, mark)
	}
	for _, name := range added {
		fmt.Printf("%-40s new, not compared\n", name)
	}
	for _, name := range dropped {
		fmt.Printf("%-40s MISSING from the new artifact\n", name)
	}
	if regressions > 0 || len(dropped) > 0 {
		fmt.Printf("\n%d regression(s) beyond %s (ns/op up or states/sec down), %d benchmark(s) missing\n",
			regressions, gate, len(dropped))
		os.Exit(1)
	}
	fmt.Printf("\nno regressions beyond %s (%d metrics compared)\n", gate, len(deltas))
}

// mergeMain folds the artifact files into one distribution report.
func mergeMain(outPath string, paths []string) {
	reps := make([]*MergedReport, 0, len(paths))
	for _, path := range paths {
		rep, err := loadAny(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		reps = append(reps, rep)
	}
	merged, err := mergeReports(reps)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	data, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks, %d runs)\n", outPath, len(merged.Benchmarks), merged.Runs)
}

func main() {
	var (
		in         = flag.String("in", "-", "bench output file (- = stdin)")
		out        = flag.String("out", "BENCH_ci.json", "JSON artifact path")
		kSigma     = flag.Float64("sigma", 3, "compare mode: regression threshold in standard deviations of the baseline")
		sigmaFloor = flag.Float64("sigma-floor", 5, "compare mode: minimum sigma as percent of the baseline mean")
	)
	flag.Parse()
	switch flag.Arg(0) {
	case "compare":
		if flag.NArg() != 3 {
			fmt.Fprintln(os.Stderr, "usage: benchjson [-sigma k] [-sigma-floor pct] compare OLD.json NEW.json")
			os.Exit(2)
		}
		compareMain(flag.Arg(1), flag.Arg(2), *kSigma, *sigmaFloor)
		return
	case "merge":
		if flag.NArg() < 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson [-out MERGED.json] merge RUN.json...")
			os.Exit(2)
		}
		mergeMain(*out, flag.Args()[1:])
		return
	}

	var src io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		src = f
	}
	rep, err := parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found")
		os.Exit(1)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	summarize(os.Stdout, rep)
	fmt.Printf("\nwrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
}
