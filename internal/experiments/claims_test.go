package experiments

import (
	"context"
	"sync"
	"testing"

	"tokencmp/internal/counters"
	"tokencmp/internal/machine"
	"tokencmp/internal/stats"
)

// The claim tests pin the paper's quantitative prose as CI-bounded
// statistical assertions over the uniform event counters: every claim
// runs 5 perturbed seeds of the OLTP surrogate on the full Table 3
// hierarchy and bounds the 95% interval of the per-seed statistic. The
// intervals are deliberately wider than the measured CIs so the tests
// tolerate workload-surrogate tuning, but tight enough that a protocol
// or accounting regression (e.g. broadcast filtering breaking, probe
// replies dropped) trips them.

const (
	claimSeeds = 5
	claimTxns  = 30
)

var (
	claimOnce sync.Once
	claimRes  map[string][]machine.Result
	claimErr  error
)

// claimResults runs (once) the three protocols the claims compare, 5
// seeds each, and caches the per-seed results.
func claimResults(t *testing.T) map[string][]machine.Result {
	t.Helper()
	claimOnce.Do(func() {
		spec := DefaultSpec()
		spec.Workload, spec.Txns, spec.Seeds = "OLTP", claimTxns, claimSeeds
		claimRes = map[string][]machine.Result{}
		for _, proto := range []string{"HammerCMP", "DirectoryCMP", "TokenCMP-dst1"} {
			spec.Protocol = proto
			res, rerr := RunSeeds(context.Background(), spec, 0)
			if rerr != nil {
				claimErr = rerr
				return
			}
			claimRes[proto] = res
		}
	})
	if claimErr != nil {
		t.Fatal(claimErr)
	}
	return claimRes
}

// ratioSample folds the per-seed ratio of one counter across two
// protocols' paired (same-seed) runs into a sample.
func ratioSample(t *testing.T, res map[string][]machine.Result, num, den, counter string) stats.Sample {
	t.Helper()
	var s stats.Sample
	for i := range res[num] {
		d := float64(res[den][i].Counters[counter])
		if d == 0 {
			t.Fatalf("%s seed %d: %s never fired", den, i+1, counter)
		}
		s.Add(float64(res[num][i].Counters[counter]) / d)
	}
	return s
}

func assertInterval(t *testing.T, name string, s stats.Sample, wantLo, wantHi float64) {
	t.Helper()
	lo, hi := s.Interval95()
	if s.N() < claimSeeds {
		t.Fatalf("%s: only %d seeds", name, s.N())
	}
	if lo < wantLo || hi > wantHi {
		t.Errorf("%s: 95%% CI [%.4g, %.4g] (mean %.4g) outside pinned bounds [%.4g, %.4g]",
			name, lo, hi, s.Mean(), wantLo, wantHi)
	}
}

// TestHammerInterCMPTrafficRatio pins the paper's headline traffic
// claim: Hammer-style broadcast generates ~9x the inter-CMP traffic of
// the directory protocol (Figure 7a), because every external miss
// probes all other chips instead of consulting the home directory.
// Measured on the OLTP surrogate: bytes ratio ≈ 9.45, message ratio
// ≈ 28.6 (each dataless ack still crosses the chip boundary).
func TestHammerInterCMPTrafficRatio(t *testing.T) {
	res := claimResults(t)
	bytes := ratioSample(t, res, "HammerCMP", "DirectoryCMP", counters.NetBytesInterCMP)
	assertInterval(t, "inter-CMP bytes hammer/dir", bytes, 8.0, 11.0)
	msgs := ratioSample(t, res, "HammerCMP", "DirectoryCMP", counters.NetMsgInterCMP)
	assertInterval(t, "inter-CMP msgs hammer/dir", msgs, 24.0, 34.0)
}

// TestTokenPersistentRequestFraction pins the paper's starvation-
// avoidance claim: persistent requests resolve well under 1% of cache
// misses on the macro workloads (Section 7; the paper reports < 0.3%
// on the full-size runs, and the scaled surrogate stays the same order
// of magnitude). The lower bound ensures the persistent path actually
// fires — a claim over a dead counter proves nothing.
func TestTokenPersistentRequestFraction(t *testing.T) {
	res := claimResults(t)
	var frac stats.Sample
	for _, r := range res["TokenCMP-dst1"] {
		misses := float64(r.Counters[counters.L1Miss])
		if misses == 0 {
			t.Fatal("TokenCMP-dst1: no L1 misses recorded")
		}
		frac.Add(float64(r.Counters[counters.ReqPersistent]) / misses)
	}
	assertInterval(t, "persistent/miss", frac, 1e-5, 0.01)
}

// TestHammerProbeResponseConservation pins the broadcast protocol
// invariant behind its traffic cost: every probe is answered, with
// data from the owner or a dataless ack from everyone else, so
// (acks + data replies) / probes sent is exactly 1 per run — and data
// replies are a small but nonzero share (only owners send data).
func TestHammerProbeResponseConservation(t *testing.T) {
	res := claimResults(t)
	var resp stats.Sample
	for i, r := range res["HammerCMP"] {
		sent := r.Counters[counters.ProbeSent]
		ack := r.Counters[counters.ProbeAck]
		data := r.Counters[counters.ProbeData]
		if sent == 0 {
			t.Fatal("HammerCMP: no probes sent")
		}
		if data == 0 {
			t.Fatalf("seed %d: no owner data replies", i+1)
		}
		if ack <= data {
			t.Errorf("seed %d: acks (%d) should dominate data replies (%d)", i+1, ack, data)
		}
		resp.Add(float64(ack+data) / float64(sent))
	}
	assertInterval(t, "(ack+data)/probe", resp, 0.999, 1.001)
}
