package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"tokencmp/internal/counters"
	"tokencmp/internal/experiments"
	"tokencmp/internal/sim"
)

// tinySizes keep every workload and rung to a fraction of a second.
var tinySizes = sizes{
	txns: 1, commercialSeeds: 1,
	acquires: 2, lockingSeeds: 1,
	mcCaches: 2, mcArbTokens: 2, mcDstTokens: 2,
	requests:    24,
	setupRounds: 1,
	ladder:      0.001,
}

// benchmarkSpec reads the metric names BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// sameMetrics fails unless rep reports exactly the declared metrics,
// each with its declared unit and a finite value.
func sameMetrics(t *testing.T, what string, rep report, want map[string]string) {
	t.Helper()
	got := map[string]string{}
	for _, m := range rep.metrics {
		got[m.name] = m.unit
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("%s: %s = %v", what, m.name, m.value)
		}
	}
	if !reflect.DeepEqual(got, want) {
		for k, u := range want {
			if got[k] != u {
				t.Errorf("%s: %s: got unit %q, BENCHMARK.json says %q", what, k, got[k], u)
			}
		}
		for k := range got {
			if _, ok := want[k]; !ok {
				t.Errorf("%s: reports %s, which BENCHMARK.json does not declare", what, k)
			}
		}
	}
}

// The smoke and traced-run tests run in parallel to keep the package's
// tests short; they only check what is reported, not how fast.
func TestSmokeEveryWorkload(t *testing.T) {
	t.Parallel()
	e2e, _ := benchmarkSpec(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			// Seed 2: the pins hold full-size seed-1 outputs, so a tiny
			// run checks its passes against its own first pass.
			rep, err := measure(io.Discard, name, 2, 0, tinySizes)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("attempted %d, failed %d", rep.attempted, rep.failed)
			}
			sameMetrics(t, name, rep, e2e)
			for _, m := range rep.metrics {
				if m.value <= 0 {
					t.Errorf("%s = %v, want > 0", m.name, m.value)
				}
			}
		})
	}
}

func TestTracedRunReportsDeclaredLayers(t *testing.T) {
	t.Parallel()
	_, layers := benchmarkSpec(t)
	dir := t.TempDir()
	rep, err := traced(io.Discard, 2, tinySizes, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("failed %d of %d", rep.failed, rep.attempted)
	}
	sameMetrics(t, "traced", rep, layers)
	for _, name := range workloadNames {
		for _, f := range []string{"trace-" + name + ".json", "cpu-" + name + ".pprof"} {
			if st, err := os.Stat(dir + "/" + f); err != nil || st.Size() == 0 {
				t.Errorf("%s missing or empty: %v", f, err)
			}
		}
	}
}

func TestPercentileNeedsTenAbove(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{5, 0.5, 3, false},
		{19, 0.5, 10, false},
		{21, 0.5, 11, true},
		{99, 0.9, 89.2, true},
		{100, 0.9, 90.1, true},
		{50, 0.9, 45.1, false},
		{1000, 0.99, 990.01, true},
		{999, 0.99, 989.02, true}, // 990..999 lie above it
		{900, 0.99, 891.01, false},
	} {
		v, ok := percentile(seq(c.n), c.p)
		if math.Abs(v-c.want) > 1e-9 || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, v, ok, c.want, c.ok)
		}
	}
	if v, ok := percentile(nil, 0.5); v != 0 || ok {
		t.Errorf("percentile(nil) = %v, %v", v, ok)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Values from Python 3: statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7}, [3]float64{2, 4, 6}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestCommercialMatchesExperiments pins that the commercial workload
// runs exactly the simulations Figures 6 and 7 print.
func TestCommercialMatchesExperiments(t *testing.T) {
	sz := tinySizes
	sz.commercialSeeds = 2
	w := commercialWorkload(1, sz)
	p, err := w.pass(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	units := p.units
	opt := experiments.DefaultOptions()
	opt.Seeds, opt.TxnsPerProc, opt.Jobs = sz.commercialSeeds, sz.txns, jobs
	wls := []string{"OLTP", "Apache", "SPECjbb"}
	fig, err := experiments.RunCommercial(wls, w.protos, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, wl := range wls {
		for j, proto := range w.protos {
			var got experiments.Cell
			got.Counters = map[string]uint64{}
			for _, u := range units[(i*len(w.protos)+j)*sz.commercialSeeds:][:sz.commercialSeeds] {
				if u.err != nil {
					t.Fatal(u.err)
				}
				got.Runtime.Add(float64(u.res.Runtime) / float64(sim.Nanosecond))
				got.Traffic.Merge(&u.res.Traffic)
				got.Misses += u.res.Misses
				got.Persist += u.res.Persistent
				counters.MergeInto(got.Counters, u.res.Counters)
			}
			want := fig.Cells[wl][proto]
			if got.Runtime.Mean() != want.Runtime.Mean() || got.Misses != want.Misses || got.Persist != want.Persist ||
				!reflect.DeepEqual(got.Traffic, want.Traffic) || !reflect.DeepEqual(got.Counters, want.Counters) {
				t.Errorf("%s/%s: benchmark cell differs from experiments.RunCommercial", wl, proto)
			}
		}
	}
}

func TestSpansNestInTheirParents(t *testing.T) {
	tr := newTracer()
	root := tr.begin("workload locking", 0)
	p, err := lockingWorkload(2, tinySizes).pass(tr, root.id)
	tr.end(root)
	if err != nil {
		t.Fatal(err)
	}
	units := p.units
	spans := tr.snapshot()
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	// workload, pass, and per unit: the run plus new, gen and run.
	if want := 2 + 4*len(units); len(spans) != want {
		t.Fatalf("%d spans, want %d", len(spans), want)
	}
	if err := writeChrome(io.Discard, spans); err != nil {
		t.Fatal(err)
	}

	escaped := []span{
		{Name: "parent", ID: 1, Start: 0, End: 10},
		{Name: "child", ID: 2, Parent: 1, Start: 5, End: 11},
	}
	if checkNesting(escaped) == nil {
		t.Error("a child ending after its parent passed the nesting check")
	}
	if checkNesting(escaped[1:]) == nil {
		t.Error("a child of an unrecorded parent passed the nesting check")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "unit", ID: 1, Start: 0, End: 10 * ms},
		{Name: "a", ID: 2, Parent: 1, Start: 1 * ms, End: 4 * ms},
		{Name: "b", ID: 3, Parent: 1, Start: 3 * ms, End: 6 * ms}, // overlaps a
		{Name: "c", ID: 4, Parent: 3, Start: 4 * ms, End: 5 * ms},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 5 * ms, 2: 3 * ms, 3: 2 * ms, 4: 1 * ms}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}
