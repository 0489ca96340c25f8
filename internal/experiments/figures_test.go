package experiments

import (
	"runtime"
	"strings"
	"testing"
)

// TestRunFigures pins RunFigures' selection, order and layout at
// tinyOpts: figures print in table order whatever order the ids come
// in, the commercial figures share one run, a figure prints the same
// bytes whether or not the rest of its experiment follows it, counter
// totals print where they belong, and an unknown id fails before
// anything runs.
func TestRunFigures(t *testing.T) {
	opt := tinyOpts(2)
	counters := false
	run := func(ids ...string) (out string, mallocs uint64) {
		t.Helper()
		var b strings.Builder
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := RunFigures(&b, ids, opt, counters); err != nil {
			t.Fatalf("RunFigures(%v): %v", ids, err)
		}
		runtime.ReadMemStats(&after)
		return b.String(), after.Mallocs - before.Mallocs
	}

	all, _ := run("7b", "6", "4", "3", "7a", "2", "3")
	if !strings.HasPrefix(all, Figures[0].Title) {
		t.Errorf("output opens with %.40q, want %q", all, Figures[0].Title)
	}
	at := 0
	for _, f := range Figures {
		i := strings.Index(all[at:], f.Title)
		if i < 0 {
			t.Fatalf("%q missing or out of table order in:\n%s", f.Title, all)
		}
		at += i + len(f.Title)
	}

	lock, _ := run("3", "2")
	fig2, _ := run("2")
	fig3, _ := run("3")
	if lock != fig2+fig3 {
		t.Errorf("figures 2,3 differ from figure 2 then figure 3:\n-- 2,3 --\n%s\n-- 2 then 3 --\n%s", lock, fig2+fig3)
	}

	com, comMallocs := run("7b", "7a", "6")
	fig6, fig6Mallocs := run("6")
	fig7a, _ := run("7a")
	fig7b, _ := run("7b")
	if com != fig6+fig7a+fig7b {
		t.Errorf("figures 6,7a,7b differ from each printed alone:\n-- 6,7a,7b --\n%s\n-- each --\n%s", com, fig6+fig7a+fig7b)
	}
	// A second commercial run would double the allocations.
	if comMallocs > 3*fig6Mallocs/2 {
		t.Errorf("figures 6,7a,7b allocated %d objects, figure 6 alone %d: want one shared run", comMallocs, fig6Mallocs)
	}

	// Counter totals follow each lock and barrier figure, and the
	// commercial figures once, after the last of them.
	counters = true
	const block = "\nEvent counters"
	if out, _ := run("4", "2", "3"); strings.Count(out, block) != 3 {
		t.Errorf("figures 2,3,4 print %d counter blocks, want 3", strings.Count(out, block))
	}
	if out, _ := run("6", "7b"); strings.Count(out, block) != 1 || strings.Index(out, block) < strings.Index(out, fig7bTitle) {
		t.Errorf("figures 6,7b print %d counter blocks, want 1 after figure 7b:\n%s", strings.Count(out, block), out)
	}

	for _, ids := range [][]string{{"5"}, {"2", "5"}, {"7A"}, {""}} {
		var b strings.Builder
		if err := RunFigures(&b, ids, opt, false); err == nil || b.Len() > 0 {
			t.Errorf("RunFigures(%q) = %v after %d bytes, want an error before any output", ids, err, b.Len())
		}
	}
}
