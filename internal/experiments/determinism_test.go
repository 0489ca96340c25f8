package experiments

import (
	"strings"
	"testing"

	"tokencmp/internal/stats"
	"tokencmp/internal/topo"
)

// tinyOpts is a deliberately small configuration: these tests compare
// rendered bytes across worker counts, not paper shapes.
func tinyOpts(jobs int) Options {
	opt := DefaultOptions()
	opt.Geom = topo.NewGeometry(2, 2, 2)
	opt.Seeds = 2
	opt.Acquires = 4
	opt.Barriers = 2
	opt.TxnsPerProc = 3
	opt.Jobs = jobs
	return opt
}

// TestLockSweepParallelDeterminism asserts the rendered Figure 2/3 table
// is byte-identical at -jobs 1 and -jobs 8.
func TestLockSweepParallelDeterminism(t *testing.T) {
	render := func(jobs int) string {
		sweep, err := RunLockSweep([]string{"DirectoryCMP", "TokenCMP-dst1"}, []int{2, 8}, tinyOpts(jobs))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		sweep.RenderLocks(&b, "determinism")
		return b.String()
	}
	serial := render(1)
	if parallel := render(8); parallel != serial {
		t.Errorf("lock sweep diverged:\n-- jobs=1 --\n%s\n-- jobs=8 --\n%s", serial, parallel)
	}
}

// TestBarrierParallelDeterminism asserts the rendered Table 4 is
// byte-identical at -jobs 1 and -jobs 8.
func TestBarrierParallelDeterminism(t *testing.T) {
	render := func(jobs int) string {
		table, err := RunBarrierTable([]string{"DirectoryCMP", "TokenCMP-dst1"}, tinyOpts(jobs))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		table.RenderBarrier(&b)
		return b.String()
	}
	serial := render(1)
	if parallel := render(8); parallel != serial {
		t.Errorf("barrier table diverged:\n-- jobs=1 --\n%s\n-- jobs=8 --\n%s", serial, parallel)
	}
}

// TestCommercialParallelDeterminism asserts Figures 6, 7a, and 7b are
// byte-identical at -jobs 1 and -jobs 8.
func TestCommercialParallelDeterminism(t *testing.T) {
	render := func(jobs int) string {
		res, err := RunCommercial([]string{"OLTP"}, []string{"DirectoryCMP", "TokenCMP-dst1"}, tinyOpts(jobs))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		res.RenderRuntime(&b)
		res.RenderTraffic(&b, stats.InterCMP)
		res.RenderTraffic(&b, stats.IntraCMP)
		return b.String()
	}
	serial := render(1)
	if parallel := render(8); parallel != serial {
		t.Errorf("commercial figures diverged:\n-- jobs=1 --\n%s\n-- jobs=8 --\n%s", serial, parallel)
	}
}

// TestRenderWithoutDirectoryCMP asserts every renderer falls back to the
// first measured protocol instead of nil-panicking when DirectoryCMP is
// not in the protocol list.
func TestRenderWithoutDirectoryCMP(t *testing.T) {
	opt := tinyOpts(0)
	opt.Seeds = 1

	sweep, err := RunLockSweep([]string{"TokenCMP-dst1", "TokenCMP-dst0"}, []int{2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	sweep.RenderLocks(&b, "no-baseline")
	if !strings.Contains(b.String(), "TokenCMP-dst1") {
		t.Errorf("lock sweep did not fall back to the first protocol:\n%s", b.String())
	}

	table, err := RunBarrierTable([]string{"TokenCMP-dst1", "TokenCMP-dst0"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	table.RenderBarrier(&b)
	if !strings.Contains(b.String(), "normalized to TokenCMP-dst1") {
		t.Errorf("barrier table did not fall back to the first protocol:\n%s", b.String())
	}

	res, err := RunCommercial([]string{"OLTP"}, []string{"TokenCMP-dst1", "TokenCMP-dst0"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	res.RenderRuntime(&b)
	res.RenderTraffic(&b, stats.InterCMP)
	res.RenderTraffic(&b, stats.IntraCMP)
	if !strings.Contains(b.String(), "normalized to TokenCMP-dst1") {
		t.Errorf("commercial renderers did not fall back to the first protocol:\n%s", b.String())
	}
}
