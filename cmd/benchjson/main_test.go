package main

import (
	"math"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: tokencmp
cpu: AMD EPYC
BenchmarkFig2LockingPersistent-8   	       1	 123456789 ns/op	         1.234 arb0@2locks	         0.900 dst0@512locks
BenchmarkProtocolHandoff/DirectoryCMP-8  	       2	   1000000 ns/op	  491520 B/op	    2048 allocs/op
BenchmarkSec5ModelCheck-8   	       1	  50000000 ns/op	   218452 states/sec	 1048576 B/op	   12345 allocs/op
PASS
ok  	tokencmp	12.345s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Context["goos"]; got != "linux" {
		t.Errorf("goos = %q", got)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "Fig2LockingPersistent" {
		t.Errorf("name = %q", b.Name)
	}
	if b.Iterations != 1 {
		t.Errorf("iterations = %d", b.Iterations)
	}
	if got := b.Metrics["ns/op"]; got != 123456789 {
		t.Errorf("ns/op = %v", got)
	}
	if got := b.Metrics["arb0@2locks"]; got != 1.234 {
		t.Errorf("arb0@2locks = %v", got)
	}
	sub := rep.Benchmarks[1]
	if sub.Name != "ProtocolHandoff/DirectoryCMP" {
		t.Errorf("sub-benchmark name = %q", sub.Name)
	}
	if sub.Iterations != 2 {
		t.Errorf("sub-benchmark iterations = %d", sub.Iterations)
	}
	if sub.NsPerOp != 1000000 || sub.BytesPerOp != 491520 || sub.AllocsPerOp != 2048 {
		t.Errorf("standard series = %v ns/op, %v B/op, %v allocs/op; want 1000000, 491520, 2048",
			sub.NsPerOp, sub.BytesPerOp, sub.AllocsPerOp)
	}
	if b.AllocsPerOp != 0 {
		t.Errorf("allocs/op without -benchmem = %v, want 0", b.AllocsPerOp)
	}
	// Checker throughput rides along in the generic metrics map, so
	// BENCH_ci.json tracks states/sec from the benchmark that reports it.
	sec5 := rep.Benchmarks[2]
	if got := sec5.Metrics["states/sec"]; got != 218452 {
		t.Errorf("states/sec = %v, want 218452", got)
	}
	if sec5.BytesPerOp != 1048576 || sec5.AllocsPerOp != 12345 {
		t.Errorf("sec5 standard series = %v B/op, %v allocs/op", sec5.BytesPerOp, sec5.AllocsPerOp)
	}
}

// mkReport builds a one-benchmark report for compare tests.
func mkReport(name string, metrics map[string]float64) *Report {
	b := Benchmark{Name: name, Iterations: 1, Metrics: metrics}
	return &Report{Benchmarks: []Benchmark{b}}
}

// compareAt10 judges newRep against a single-run baseline lifted into a
// degenerate distribution, where one sigma floored at 10% of the mean
// gates changes beyond 10%.
func compareAt10(oldRep, newRep *Report) (deltas []delta, added, dropped []string) {
	return compareDist(toMerged(oldRep), newRep, 1, 10)
}

func TestCompareFlagsRegressions(t *testing.T) {
	oldRep := &Report{Benchmarks: []Benchmark{
		{Name: "Sec5ModelCheck", Metrics: map[string]float64{"ns/op": 100, "states/sec": 1000, "safety-states": 243}},
		{Name: "Table4Barrier", Metrics: map[string]float64{"ns/op": 200}},
		{Name: "Dropped", Metrics: map[string]float64{"ns/op": 5}},
	}}
	newRep := &Report{Benchmarks: []Benchmark{
		{Name: "Sec5ModelCheck", Metrics: map[string]float64{"ns/op": 105, "states/sec": 500, "safety-states": 243}},
		{Name: "Table4Barrier", Metrics: map[string]float64{"ns/op": 250}},
		{Name: "Added", Metrics: map[string]float64{"ns/op": 7}},
	}}
	deltas, added, dropped := compareAt10(oldRep, newRep)
	got := map[string]bool{}
	for _, d := range deltas {
		got[d.bench+" "+d.metric] = d.regression
	}
	// ns/op +5% is within the gate; states/sec -50% and ns/op +25% are not.
	for key, want := range map[string]bool{
		"Sec5ModelCheck ns/op":         false,
		"Sec5ModelCheck states/sec":    true,
		"Sec5ModelCheck safety-states": false, // informational metric never gates
		"Table4Barrier ns/op":          true,
	} {
		if reg, ok := got[key]; !ok || reg != want {
			t.Errorf("%s: regression=%v (present=%v), want %v", key, reg, ok, want)
		}
	}
	// A benchmark that vanished from the new artifact must be reported
	// as dropped (the caller fails the gate on it — deleting a gated
	// benchmark must not bypass the gate); new benchmarks are
	// informational.
	if len(added) != 1 || added[0] != "Added" {
		t.Errorf("added = %v, want [Added]", added)
	}
	if len(dropped) != 1 || dropped[0] != "Dropped" {
		t.Errorf("dropped = %v, want [Dropped]", dropped)
	}
}

// TestCompareFlagsDroppedGatedMetric pins the metric-level gate: a
// shared benchmark that stops reporting a gated series (ns/op,
// states/sec) must show up as dropped, or deleting the ReportMetric
// call would silently bypass the throughput gate.
func TestCompareFlagsDroppedGatedMetric(t *testing.T) {
	oldRep := mkReport("Sec5ModelCheck", map[string]float64{"ns/op": 100, "states/sec": 1000, "safety-states": 243})
	newRep := mkReport("Sec5ModelCheck", map[string]float64{"ns/op": 100})
	deltas, _, dropped := compareAt10(oldRep, newRep)
	if len(dropped) != 1 || dropped[0] != "Sec5ModelCheck states/sec" {
		t.Errorf("dropped = %v, want [Sec5ModelCheck states/sec] (informational safety-states must not gate)", dropped)
	}
	if len(deltas) != 1 || deltas[0].metric != "ns/op" {
		t.Errorf("deltas = %+v, want just the shared ns/op", deltas)
	}
}

func TestCompareImprovementPasses(t *testing.T) {
	oldRep := mkReport("Sec5ModelCheck", map[string]float64{"ns/op": 100, "states/sec": 1000})
	newRep := mkReport("Sec5ModelCheck", map[string]float64{"ns/op": 50, "states/sec": 3000})
	deltas, _, _ := compareAt10(oldRep, newRep)
	for _, d := range deltas {
		if d.regression {
			t.Errorf("%s %s flagged as regression on improvement (%+.1f%%)", d.bench, d.metric, d.pct)
		}
	}
	if len(deltas) != 2 {
		t.Errorf("compared %d metrics, want 2", len(deltas))
	}
}

// TestCompareNaNGatedMetric pins the NaN hole: every comparison
// against NaN is false, so a NaN gated value would pass the threshold
// check — it must instead gate like a missing metric. Informational
// metrics stay informational even when NaN.
func TestCompareNaNGatedMetric(t *testing.T) {
	oldRep := mkReport("Sec5ModelCheck", map[string]float64{"ns/op": 100, "states/sec": 1000, "safety-states": 243})
	newRep := mkReport("Sec5ModelCheck", map[string]float64{"ns/op": 100, "states/sec": math.NaN(), "safety-states": math.NaN()})
	deltas, _, dropped := compareAt10(oldRep, newRep)
	if len(dropped) != 1 || dropped[0] != "Sec5ModelCheck states/sec" {
		t.Errorf("dropped = %v, want [Sec5ModelCheck states/sec]", dropped)
	}
	for _, d := range deltas {
		if d.regression {
			t.Errorf("%s %s: NaN flagged as regression, want gated via dropped instead", d.bench, d.metric)
		}
	}
}

func TestSummarizeRuns(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	summarize(&sb, rep)
	out := sb.String()
	for _, want := range []string{"Fig2LockingPersistent", "TOTAL", "arb0@2locks"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
