package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"tokencmp/internal/counters"
	"tokencmp/internal/machine"
	"tokencmp/internal/stats"
)

// This file is the statistical claims harness: it turns the paper's
// prose claims ("HammerCMP generates ~9x the inter-CMP traffic of
// DirectoryCMP", "persistent requests resolve < 0.3% of misses") into
// CI-bounded assertions over the uniform event counters, instead of
// golden strings. A claim compares two protocols run over the SAME
// workload and the SAME perturbed seeds; the per-seed ratio of a
// counter-derived metric folds into a stats.Sample whose 95% interval
// the test then pins (Alameldeen & Wood's paired-measurement style).

// Metric extracts one scalar from a finished run.
type Metric func(res machine.Result) float64

// CounterMetric reads one uniform event counter.
func CounterMetric(name string) Metric {
	return func(res machine.Result) float64 { return float64(res.Counters[name]) }
}

// RunSeeds makes the perturbed runs of spec (see Spec.Seeds) through a
// pool of jobs workers and returns the per-seed results in seed order
// (deterministic for any jobs).
func RunSeeds(ctx context.Context, spec Spec, jobs int) ([]machine.Result, error) {
	runs, err := sweep(ctx, []Spec{spec}, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]machine.Result, len(runs[0]))
	for i, r := range runs[0] {
		out[i] = r.res
	}
	return out, nil
}

// PairedFraction runs spec and returns the per-seed sample of num/den
// where both metrics come from the same run (e.g. persistent requests
// as a fraction of misses). A seed whose denominator is zero is an
// error: a claim over a counter that never fired means the metric (or
// the wiring) is wrong.
func PairedFraction(ctx context.Context, spec Spec, jobs int, num, den Metric) (stats.Sample, error) {
	var sample stats.Sample
	results, err := RunSeeds(ctx, spec, jobs)
	if err != nil {
		return sample, err
	}
	for i := range results {
		d := den(results[i])
		if d == 0 || math.IsNaN(d) {
			return sample, fmt.Errorf("experiments: %s seed %d: zero/NaN denominator metric", spec.Protocol, spec.Seed+int64(i))
		}
		sample.Add(num(results[i]) / d)
	}
	return sample, nil
}

// renderCounterBlocks prints one sorted counter table per protocol, in
// the given order — the rendering behind the cmds' -counters flag.
func renderCounterBlocks(w io.Writer, protocols []string, merged func(proto string) map[string]uint64) {
	fmt.Fprintln(w, "\nEvent counters (summed over all runs of each protocol):")
	for _, p := range protocols {
		fmt.Fprintf(w, "%s:\n", p)
		counters.Fprint(w, merged(p))
	}
}

// RenderCounters prints the per-protocol event-counter totals of the
// sweep, summed over lock counts and seeds.
func (s *LockSweep) RenderCounters(w io.Writer) {
	renderCounterBlocks(w, s.Protocols, func(p string) map[string]uint64 {
		acc := map[string]uint64{}
		for _, c := range s.Cells[p] {
			counters.MergeInto(acc, c.Counters)
		}
		return acc
	})
}

// RenderCounters prints the per-protocol event-counter totals of the
// barrier study, summed over both jitter settings and all seeds.
func (t *BarrierTable) RenderCounters(w io.Writer) {
	renderCounterBlocks(w, t.Protocols, func(p string) map[string]uint64 {
		acc := map[string]uint64{}
		counters.MergeInto(acc, t.Fixed[p].Counters)
		counters.MergeInto(acc, t.Jittered[p].Counters)
		return acc
	})
}

// RenderCounters prints the per-protocol event-counter totals of the
// commercial study, summed over workloads and seeds.
func (c *Commercial) RenderCounters(w io.Writer) {
	renderCounterBlocks(w, c.Protocols, func(p string) map[string]uint64 {
		acc := map[string]uint64{}
		for _, wl := range c.Workloads {
			counters.MergeInto(acc, c.Cells[wl][p].Counters)
		}
		return acc
	})
}
