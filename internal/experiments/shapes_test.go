package experiments

import (
	"testing"

	"tokencmp/internal/stats"
)

// These regression tests assert the paper's qualitative results — who
// wins and in which direction — on scaled-down runs. cmd/figures prints
// the full-size figures (see README.md's command ↔ paper mapping).

func quickOpts() Options {
	opt := DefaultOptions()
	opt.Seeds = 1
	opt.Acquires = 16
	opt.Barriers = 6
	opt.TxnsPerProc = 10
	return opt
}

func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-geometry sweep")
	}
	sweep, err := RunLockSweep(
		[]string{"TokenCMP-arb0", "DirectoryCMP", "DirectoryCMP-zero", "TokenCMP-dst0"},
		[]int{2, 512}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	high := func(p string) float64 { return sweep.Cells["2"][p].Runtime.Mean() }
	low := func(p string) float64 { return sweep.Cells["512"][p].Runtime.Mean() }

	// Paper: under contention the arbiter scheme is clearly worse than
	// DirectoryCMP; distributed activation is comparable or better.
	if high("TokenCMP-arb0") < 1.3*high("DirectoryCMP") {
		t.Errorf("arb0@2locks = %.0f, Dir = %.0f: arbiter should collapse under contention",
			high("TokenCMP-arb0"), high("DirectoryCMP"))
	}
	if high("TokenCMP-dst0") > 1.4*high("DirectoryCMP") {
		t.Errorf("dst0@2locks = %.0f vs Dir %.0f: distributed should stay comparable",
			high("TokenCMP-dst0"), high("DirectoryCMP"))
	}
	// At low contention TokenCMP beats the directory (no indirection).
	if low("TokenCMP-dst0") > low("DirectoryCMP") {
		t.Errorf("dst0@512locks = %.0f vs Dir %.0f: token should win at low contention",
			low("TokenCMP-dst0"), low("DirectoryCMP"))
	}
}

func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-geometry sweep")
	}
	sweep, err := RunLockSweep(
		[]string{"DirectoryCMP", "TokenCMP-dst4", "TokenCMP-dst1", "TokenCMP-dst1-pred"},
		[]int{2, 512}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	low := func(p string) float64 { return sweep.Cells["512"][p].Runtime.Mean() }
	// All TokenCMP variants beat DirectoryCMP at low contention.
	for _, p := range []string{"TokenCMP-dst4", "TokenCMP-dst1", "TokenCMP-dst1-pred"} {
		if low(p) > low("DirectoryCMP") {
			t.Errorf("%s@512locks = %.0f vs Dir %.0f: token should win at low contention",
				p, low(p), low("DirectoryCMP"))
		}
	}
	// dst1-pred is the most robust token variant under contention.
	high := func(p string) float64 { return sweep.Cells["2"][p].Runtime.Mean() }
	if high("TokenCMP-dst1-pred") > high("TokenCMP-dst1") {
		t.Errorf("dst1-pred@2locks = %.0f vs dst1 %.0f: predictor should help under contention",
			high("TokenCMP-dst1-pred"), high("TokenCMP-dst1"))
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-geometry commercial runs")
	}
	res, err := RunCommercial([]string{"OLTP", "SPECjbb"},
		[]string{"DirectoryCMP", "TokenCMP-dst1", "PerfectL2"}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range res.Points {
		dir := res.Cells[wl]["DirectoryCMP"].Runtime.Mean()
		tok := res.Cells[wl]["TokenCMP-dst1"].Runtime.Mean()
		perf := res.Cells[wl]["PerfectL2"].Runtime.Mean()
		if tok >= dir {
			t.Errorf("%s: TokenCMP (%.0f) should beat DirectoryCMP (%.0f)", wl, tok, dir)
		}
		if perf >= tok {
			t.Errorf("%s: PerfectL2 (%.0f) must lower-bound TokenCMP (%.0f)", wl, perf, tok)
		}
	}
	// The ordering of gains: OLTP benefits more than SPECjbb.
	gain := func(wl string) float64 {
		return res.Cells[wl]["DirectoryCMP"].Runtime.Mean() / res.Cells[wl]["TokenCMP-dst1"].Runtime.Mean()
	}
	if gain("OLTP") < gain("SPECjbb") {
		t.Errorf("OLTP gain (%.2f) should exceed SPECjbb gain (%.2f)", gain("OLTP"), gain("SPECjbb"))
	}
	// Persistent requests must stay rare on macro workloads (paper < 0.3%).
	for _, wl := range res.Points {
		if f := res.PersistentFraction(wl, "TokenCMP-dst1"); f > 0.01 {
			t.Errorf("%s persistent fraction = %.3f%%, want < 1%%", wl, 100*f)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-geometry commercial runs")
	}
	res, err := RunCommercial([]string{"OLTP"},
		[]string{"DirectoryCMP", "TokenCMP-dst1", "TokenCMP-dst1-filt"}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	dir := res.Cells["OLTP"]["DirectoryCMP"].Traffic
	tok := res.Cells["OLTP"]["TokenCMP-dst1"].Traffic
	filt := res.Cells["OLTP"]["TokenCMP-dst1-filt"].Traffic

	// 7a: token inter-CMP traffic is in the same ballpark as (the paper:
	// somewhat less than) DirectoryCMP despite broadcasting.
	rInter := float64(tok.TotalBytes(stats.InterCMP)) / float64(dir.TotalBytes(stats.InterCMP))
	if rInter > 1.4 {
		t.Errorf("inter-CMP token/dir = %.2f, want ~1 or below", rInter)
	}
	// 7b: the filter reduces intra-CMP traffic relative to plain dst1.
	if filt.TotalBytes(stats.IntraCMP) >= tok.TotalBytes(stats.IntraCMP) {
		t.Error("filter did not reduce intra-CMP traffic")
	}
	// DirectoryCMP spends unblock bytes; TokenCMP spends none.
	if dir.Bytes[stats.InterCMP][stats.Unblock] == 0 {
		t.Error("DirectoryCMP shows no unblock traffic")
	}
	if tok.Bytes[stats.InterCMP][stats.Unblock] != 0 {
		t.Error("TokenCMP shows unblock traffic")
	}
}

func TestBarrierTableShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-geometry barrier runs")
	}
	opt := quickOpts()
	table, err := RunBarrierTable([]string{"TokenCMP-arb0", "TokenCMP-dst0", "DirectoryCMP", "TokenCMP-dst1"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	fixed := table.Cells["fixed"]
	base := fixed["DirectoryCMP"].Runtime.Mean()
	// Paper Table 4: arb0 clearly worse than DirectoryCMP; dst0 and dst1
	// comparable or better.
	if fixed["TokenCMP-arb0"].Runtime.Mean() < 1.05*base {
		t.Errorf("arb0 = %.2f× Dir, expected clearly worse", fixed["TokenCMP-arb0"].Runtime.Mean()/base)
	}
	if fixed["TokenCMP-dst1"].Runtime.Mean() > 1.25*base {
		t.Errorf("dst1 = %.2f× Dir, expected comparable", fixed["TokenCMP-dst1"].Runtime.Mean()/base)
	}
}
