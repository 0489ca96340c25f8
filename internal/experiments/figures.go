package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"tokencmp/internal/counters"
	"tokencmp/internal/stats"
)

// The headings the figures open with; the Figures records carry the
// same strings.
const (
	fig2Title   = "Figure 2: Locking micro-benchmark, persistent requests only"
	fig3Title   = "Figure 3: Locking micro-benchmark, transient + persistent requests"
	table4Title = "Table 4: Barrier micro-benchmark runtime"
	fig6Title   = "Figure 6: Commercial workload runtime"
	fig7aTitle  = "Figure 7a: Inter-CMP traffic"
	fig7bTitle  = "Figure 7b: Intra-CMP traffic"
)

// experiment is the sweep that measures a figure.
type experiment int

const (
	lockSweep    experiment = iota // a RunLockSweep of the figure's own, over lockCounts
	barrierTable                   // a RunBarrierTable of the figure's own
	commercial                     // one RunCommercial over commercialWorkloads, shared by every commercial figure
)

// Figure is one figure or table of the paper's evaluation.
type Figure struct {
	ID        string   // the selector RunFigures takes
	Title     string   // the heading the figure's output opens with
	Protocols []string // the protocols it compares, in print order
	exp       experiment
	show      func(w io.Writer, s *Sweep) // prints the figure from its sweep
}

var (
	// lockCounts is Figures 2 and 3's contention axis, from 2 locks
	// (high contention) to 512 (low).
	lockCounts          = []int{2, 4, 8, 16, 32, 64, 128, 256, 512}
	commercialWorkloads = []string{"OLTP", "Apache", "SPECjbb"}
	// commercialProtocols is the list of every commercial figure: one
	// run measures them all.
	commercialProtocols = []string{
		"DirectoryCMP", "DirectoryCMP-zero", "HammerCMP",
		"TokenCMP-dst4", "TokenCMP-dst1", "TokenCMP-dst1-pred", "TokenCMP-dst1-filt",
		"PerfectL2",
	}
)

// Figures lists the paper's figures and tables in the order RunFigures
// prints them. The records of one experiment are adjacent: Figures 2
// and 3 each run their own RunLockSweep over lockCounts, Table 4 its
// own RunBarrierTable, and Figures 6, 7a and 7b share one RunCommercial
// over commercialWorkloads.
var Figures = []Figure{
	{ID: "2", Title: fig2Title, exp: lockSweep,
		Protocols: []string{"TokenCMP-arb0", "DirectoryCMP", "DirectoryCMP-zero", "HammerCMP", "TokenCMP-dst0"},
		show:      func(w io.Writer, s *Sweep) { s.RenderLocks(w, fig2Title) }},
	{ID: "3", Title: fig3Title, exp: lockSweep,
		Protocols: []string{"DirectoryCMP", "DirectoryCMP-zero", "HammerCMP", "TokenCMP-dst4", "TokenCMP-dst1", "TokenCMP-dst1-pred"},
		show:      func(w io.Writer, s *Sweep) { s.RenderLocks(w, fig3Title) }},
	{ID: "4", Title: table4Title, exp: barrierTable,
		Protocols: []string{
			"TokenCMP-arb0", "TokenCMP-dst0",
			"DirectoryCMP", "DirectoryCMP-zero", "HammerCMP",
			"TokenCMP-dst4", "TokenCMP-dst1", "TokenCMP-dst1-pred", "TokenCMP-dst1-filt",
		},
		show: func(w io.Writer, s *Sweep) { s.RenderBarrier(w) }},
	{ID: "6", Title: fig6Title, exp: commercial, Protocols: commercialProtocols,
		show: func(w io.Writer, s *Sweep) {
			s.RenderRuntime(w)
			fmt.Fprintln(w)
			s.renderPersistentShare(w)
		}},
	{ID: "7a", Title: fig7aTitle, exp: commercial, Protocols: commercialProtocols,
		show: func(w io.Writer, s *Sweep) { s.RenderTraffic(w, stats.InterCMP) }},
	{ID: "7b", Title: fig7bTitle, exp: commercial, Protocols: commercialProtocols,
		show: func(w io.Writer, s *Sweep) { s.RenderTraffic(w, stats.IntraCMP) }},
}

// FigureIDs returns every figure's id, in table order.
func FigureIDs() []string {
	ids := make([]string, len(Figures))
	for i, f := range Figures {
		ids[i] = f.ID
	}
	return ids
}

// SelectFigures returns the set of figure ids in ids, or an error for
// an unknown or empty id. Ids are case-sensitive.
func SelectFigures(ids []string) (map[string]bool, error) {
	known := FigureIDs()
	want := map[string]bool{}
	for _, id := range ids {
		if !slices.Contains(known, id) {
			return nil, fmt.Errorf("experiments: unknown figure %q (want one of %s)", id, strings.Join(known, ", "))
		}
		want[id] = true
	}
	return want, nil
}

// RunFigures measures and prints the figures ids select (see
// SelectFigures), in table order whatever order the ids come in. Each
// lock or barrier figure is a run of its own; the commercial figures
// share one run. With counters, each lock and barrier figure is
// followed by its event-counter totals, and the commercial figures by
// one block after the last of them.
//
// A blank line separates consecutive figures. The last figure printed
// ends with one too when the next table record shares its experiment
// (Figures 2, 6 and 7a), so a figure prints the same bytes whether or
// not the rest of its experiment follows it.
func RunFigures(w io.Writer, ids []string, opt Options, counters bool) error {
	want, err := SelectFigures(ids)
	if err != nil {
		return err
	}
	var com *Sweep
	printed := 0
	for i, f := range Figures {
		if !want[f.ID] {
			continue
		}
		var s *Sweep
		switch f.exp {
		case lockSweep:
			s, err = RunLockSweep(f.Protocols, lockCounts, opt)
		case barrierTable:
			s, err = RunBarrierTable(f.Protocols, opt)
		case commercial:
			if com == nil {
				com, err = RunCommercial(commercialWorkloads, f.Protocols, opt)
			}
			s = com
		}
		if err != nil {
			return err
		}
		f.show(w, s)
		if counters && f.exp != commercial {
			renderCounters(w, s)
		}
		printed++
		if printed < len(want) || i+1 < len(Figures) && Figures[i+1].exp == f.exp {
			fmt.Fprintln(w)
		}
	}
	if com != nil && counters {
		renderCounters(w, com)
	}
	return nil
}

// renderCounters prints one sorted event-counter table per protocol of
// s, in order, each summed over the protocol's cells at every point.
func renderCounters(w io.Writer, s *Sweep) {
	fmt.Fprintln(w, "\nEvent counters (summed over all runs of each protocol):")
	for _, p := range s.Protocols {
		acc := map[string]uint64{}
		for _, pt := range s.Points {
			counters.MergeInto(acc, s.Cells[pt][p].Counters)
		}
		fmt.Fprintf(w, "%s:\n", p)
		counters.Fprint(w, acc)
	}
}

// renderPersistentShare prints TokenCMP-dst1's persistent requests as a
// share of its L1 misses, per workload (the paper: < 0.3%).
func (s *Sweep) renderPersistentShare(w io.Writer) {
	fmt.Fprintln(w, "Persistent requests as a share of L1 misses (paper: < 0.3%):")
	for _, wl := range s.Points {
		fmt.Fprintf(w, "  %-8s TokenCMP-dst1: %.3f%%\n", wl, 100*s.PersistentFraction(wl, "TokenCMP-dst1"))
	}
}
