package main

// Multi-run aggregation: `benchjson merge` folds N bench artifacts into
// one distribution report (mean/stddev/min/max per metric), and compare
// judges a new run against that distribution at k sigma — a
// step-function regression stands out from run-to-run noise the way a
// blanket percent threshold never can (BayesPerf: single-sample
// performance measurements mislead).

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// distSchema marks a merged multi-run artifact; plain artifacts have no
// schema field.
const distSchema = "benchjson/dist-v1"

// Dist is the distribution of one metric across runs.
type Dist struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// combine pools two distributions of the same metric: counts add, means
// weight by count, and the pooled sum of squared deviations is the two
// parts' plus the between-group term.
func combine(a, b Dist) Dist {
	if a.N == 0 {
		return b
	}
	if b.N == 0 {
		return a
	}
	n := a.N + b.N
	mean := (float64(a.N)*a.Mean + float64(b.N)*b.Mean) / float64(n)
	m2 := a.Std*a.Std*float64(a.N-1) + b.Std*b.Std*float64(b.N-1) +
		float64(a.N)*float64(b.N)/float64(n)*(a.Mean-b.Mean)*(a.Mean-b.Mean)
	std := 0.0
	if n > 1 {
		std = math.Sqrt(m2 / float64(n-1))
	}
	return Dist{N: n, Mean: mean, Std: std, Min: math.Min(a.Min, b.Min), Max: math.Max(a.Max, b.Max)}
}

// MergedBenchmark is one benchmark's per-metric distributions.
type MergedBenchmark struct {
	Name    string          `json:"name"`
	Metrics map[string]Dist `json:"metrics"`
}

// MergedReport is the merged multi-run artifact shape.
type MergedReport struct {
	Schema     string            `json:"schema"`
	Runs       int               `json:"runs"`
	Context    map[string]string `json:"context"`
	Benchmarks []MergedBenchmark `json:"benchmarks"`
}

// toMerged lifts a single-run artifact into a degenerate distribution
// (n=1, std=0, min=max=mean).
func toMerged(rep *Report) *MergedReport {
	out := &MergedReport{Schema: distSchema, Runs: 1, Context: rep.Context}
	for _, b := range rep.Benchmarks {
		mb := MergedBenchmark{Name: b.Name, Metrics: map[string]Dist{}}
		for k, v := range b.Metrics {
			mb.Metrics[k] = Dist{N: 1, Mean: v, Std: 0, Min: v, Max: v}
		}
		out.Benchmarks = append(out.Benchmarks, mb)
	}
	return out
}

// mergeReports folds artifacts (single-run or already-merged) into one
// distribution report. Benchmarks and metrics merge by union — a metric
// missing from some runs simply has a smaller n — and the output lists
// benchmarks sorted by name so merging is deterministic for any input
// order.
func mergeReports(reps []*MergedReport) (*MergedReport, error) {
	if len(reps) == 0 {
		return nil, fmt.Errorf("benchjson: merge needs at least one artifact")
	}
	byName := map[string]map[string]Dist{}
	out := &MergedReport{Schema: distSchema, Context: map[string]string{}}
	for _, rep := range reps {
		out.Runs += rep.Runs
		for k, v := range rep.Context {
			out.Context[k] = v
		}
		for _, b := range rep.Benchmarks {
			acc := byName[b.Name]
			if acc == nil {
				acc = map[string]Dist{}
				byName[b.Name] = acc
			}
			for k, d := range b.Metrics {
				acc[k] = combine(acc[k], d)
			}
		}
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out.Benchmarks = append(out.Benchmarks, MergedBenchmark{Name: name, Metrics: byName[name]})
	}
	return out, nil
}

// loadAny reads an artifact of either shape, lifting single-run
// artifacts into degenerate distributions.
func loadAny(path string) (*MergedReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("benchjson: %s: %v", path, err)
	}
	if probe.Schema == distSchema {
		rep := &MergedReport{}
		if err := json.Unmarshal(data, rep); err != nil {
			return nil, fmt.Errorf("benchjson: %s: %v", path, err)
		}
		return rep, nil
	}
	if probe.Schema != "" {
		return nil, fmt.Errorf("benchjson: %s: unknown schema %q", path, probe.Schema)
	}
	rep := &Report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("benchjson: %s: %v", path, err)
	}
	return toMerged(rep), nil
}

// compareDist judges a new single-run artifact against a merged
// baseline distribution. A gated metric regresses when it lands beyond
// kSigma standard deviations on its bad side (above for ns/op, below
// for states/sec); a value exactly at the k-sigma boundary passes. The
// per-metric sigma is floored at floorPct percent of the baseline mean,
// so a degenerate distribution (one run, or runs that happened to
// agree exactly) cannot turn measurement jitter into a gate failure.
// Benchmarks present in the baseline but absent from the new artifact —
// and gated metrics a shared benchmark stopped reporting, or reports as
// NaN — are listed in dropped and must fail the gate too, otherwise
// deleting (or renaming) a gated benchmark or its ReportMetric call
// would silently bypass it. Benchmarks new to the artifact are
// informational.
func compareDist(base *MergedReport, newRep *Report, kSigma, floorPct float64) (deltas []delta, added, dropped []string) {
	byName := map[string]*MergedBenchmark{}
	for i := range base.Benchmarks {
		byName[base.Benchmarks[i].Name] = &base.Benchmarks[i]
	}
	for i := range newRep.Benchmarks {
		nb := &newRep.Benchmarks[i]
		ob := byName[nb.Name]
		if ob == nil {
			added = append(added, nb.Name)
			continue
		}
		delete(byName, nb.Name)
		for _, k := range gatedMetrics {
			_, inOld := ob.Metrics[k]
			nv, inNew := nb.Metrics[k]
			// A NaN gated value is as gone as a missing one: every
			// comparison against NaN is false, so without this it would
			// sail through the regression check below.
			if inOld && (!inNew || math.IsNaN(nv)) {
				dropped = append(dropped, nb.Name+" "+k)
			}
		}
		keys := make([]string, 0, len(nb.Metrics))
		for k := range nb.Metrics {
			if _, shared := ob.Metrics[k]; shared {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool {
			if (keys[i] == "ns/op") != (keys[j] == "ns/op") {
				return keys[i] == "ns/op"
			}
			return keys[i] < keys[j]
		})
		for _, k := range keys {
			od := ob.Metrics[k]
			d := delta{bench: nb.Name, metric: k, old: od.Mean, new: nb.Metrics[k]}
			if d.old != 0 {
				d.pct = (d.new - d.old) / d.old * 100
			}
			sigma := math.Max(od.Std, floorPct/100*math.Abs(od.Mean))
			switch k {
			case "ns/op":
				d.regression = d.new > od.Mean+kSigma*sigma
			case "states/sec":
				d.regression = d.new < od.Mean-kSigma*sigma
			}
			deltas = append(deltas, d)
		}
	}
	for name := range byName {
		dropped = append(dropped, name)
	}
	sort.Strings(added)
	sort.Strings(dropped)
	return deltas, added, dropped
}
