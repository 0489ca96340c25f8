package experiments

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tokencmp/internal/stats"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_figures.txt from the current simulator")

// renderAllFigures regenerates a scaled-down version of every paper
// figure and table across all four protocol stacks (token distributed
// and arbiter activation, directory, hammer broadcast, perfect L2) and
// returns the concatenated rendered bytes.
func renderAllFigures(t *testing.T, jobs int) string {
	t.Helper()
	return renderAllFiguresCtx(t, jobs, nil)
}

// renderAllFiguresCtx is renderAllFigures with a cancellation context
// installed on every run (nil = no context), so the golden tests can
// pin that the cancellation plumbing is invisible when uncancelled.
func renderAllFiguresCtx(t *testing.T, jobs int, ctx context.Context) string {
	t.Helper()
	opt := tinyOpts(jobs)
	opt.Context = ctx
	var b strings.Builder

	sweep, err := RunLockSweep(
		[]string{"DirectoryCMP", "HammerCMP", "TokenCMP-arb0", "TokenCMP-dst1"},
		[]int{2, 8}, opt)
	if err != nil {
		t.Fatal(err)
	}
	sweep.RenderLocks(&b, "golden locking sweep")
	b.WriteString("\n")

	table, err := RunBarrierTable([]string{"DirectoryCMP-zero", "TokenCMP-dst0", "TokenCMP-dst1"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	table.RenderBarrier(&b)
	b.WriteString("\n")

	res, err := RunCommercial([]string{"OLTP"},
		[]string{"DirectoryCMP", "HammerCMP", "TokenCMP-dst1-filt", "PerfectL2"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	res.RenderRuntime(&b)
	res.RenderTraffic(&b, stats.InterCMP)
	res.RenderTraffic(&b, stats.IntraCMP)
	return b.String()
}

// TestGoldenFigures pins the rendered figures and tables byte-for-byte
// against pre-recorded output, at jobs=1 and jobs=8. Any simulator-core
// change that shifts event order, message timing, cache replacement, or
// merge order fails this test. Refresh intentionally with
//
//	go test ./internal/experiments -run TestGoldenFigures -update-golden
func TestGoldenFigures(t *testing.T) {
	path := filepath.Join("testdata", "golden_figures.txt")
	got := renderAllFigures(t, 1)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("figures diverged from golden output at jobs=1:\n-- got --\n%s\n-- want --\n%s", got, want)
	}
	if par := renderAllFigures(t, 8); par != string(want) {
		t.Errorf("figures diverged from golden output at jobs=8:\n-- got --\n%s\n-- want --\n%s", par, want)
	}
}
