package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"tokencmp/internal/counters"
	"tokencmp/internal/stats"
)

// The headings of the figures whose renderers print their own title;
// their Figures records carry the same strings.
const (
	table4Title = "Table 4: Barrier micro-benchmark runtime"
	fig6Title   = "Figure 6: Commercial workload runtime"
	fig7aTitle  = "Figure 7a: Inter-CMP traffic"
	fig7bTitle  = "Figure 7b: Intra-CMP traffic"
)

// experiment is the kind of run that measures a figure.
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
	show      func(w io.Writer, c *Commercial) // prints a commercial figure from the shared run
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
// prints them. The records of one experiment are adjacent.
var Figures = []Figure{
	{ID: "2", Title: "Figure 2: Locking micro-benchmark, persistent requests only", exp: lockSweep,
		Protocols: []string{"TokenCMP-arb0", "DirectoryCMP", "DirectoryCMP-zero", "HammerCMP", "TokenCMP-dst0"}},
	{ID: "3", Title: "Figure 3: Locking micro-benchmark, transient + persistent requests", exp: lockSweep,
		Protocols: []string{"DirectoryCMP", "DirectoryCMP-zero", "HammerCMP", "TokenCMP-dst4", "TokenCMP-dst1", "TokenCMP-dst1-pred"}},
	{ID: "4", Title: table4Title, exp: barrierTable,
		Protocols: []string{
			"TokenCMP-arb0", "TokenCMP-dst0",
			"DirectoryCMP", "DirectoryCMP-zero", "HammerCMP",
			"TokenCMP-dst4", "TokenCMP-dst1", "TokenCMP-dst1-pred", "TokenCMP-dst1-filt",
		}},
	{ID: "6", Title: fig6Title, exp: commercial, Protocols: commercialProtocols,
		show: func(w io.Writer, c *Commercial) {
			c.RenderRuntime(w)
			fmt.Fprintln(w)
			c.renderPersistentShare(w)
		}},
	{ID: "7a", Title: fig7aTitle, exp: commercial, Protocols: commercialProtocols,
		show: func(w io.Writer, c *Commercial) { c.RenderTraffic(w, stats.InterCMP) }},
	{ID: "7b", Title: fig7bTitle, exp: commercial, Protocols: commercialProtocols,
		show: func(w io.Writer, c *Commercial) { c.RenderTraffic(w, stats.IntraCMP) }},
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
	var com *Commercial
	printed := 0
	for i, f := range Figures {
		if !want[f.ID] {
			continue
		}
		switch f.exp {
		case lockSweep:
			sweep, err := RunLockSweep(f.Protocols, lockCounts, opt)
			if err != nil {
				return err
			}
			sweep.Render(w, f.Title)
			if counters {
				renderCounters(w, f.Protocols, func(p string) []*Cell { return sweep.Cells[p] })
			}
		case barrierTable:
			table, err := RunBarrierTable(f.Protocols, opt)
			if err != nil {
				return err
			}
			table.Render(w)
			if counters {
				renderCounters(w, f.Protocols, func(p string) []*Cell {
					return []*Cell{table.Fixed[p], table.Jittered[p]}
				})
			}
		case commercial:
			if com == nil {
				if com, err = RunCommercial(commercialWorkloads, f.Protocols, opt); err != nil {
					return err
				}
			}
			f.show(w, com)
		}
		printed++
		if printed < len(want) || i+1 < len(Figures) && Figures[i+1].exp == f.exp {
			fmt.Fprintln(w)
		}
	}
	if com != nil && counters {
		renderCounters(w, com.Protocols, func(p string) []*Cell {
			var cells []*Cell
			for _, wl := range com.Workloads {
				cells = append(cells, com.Cells[wl][p])
			}
			return cells
		})
	}
	return nil
}

// renderCounters prints one sorted event-counter table per protocol, in
// the given order, each summed over the protocol's cells.
func renderCounters(w io.Writer, protocols []string, cells func(proto string) []*Cell) {
	fmt.Fprintln(w, "\nEvent counters (summed over all runs of each protocol):")
	for _, p := range protocols {
		acc := map[string]uint64{}
		for _, c := range cells(p) {
			counters.MergeInto(acc, c.Counters)
		}
		fmt.Fprintf(w, "%s:\n", p)
		counters.Fprint(w, acc)
	}
}

// renderPersistentShare prints TokenCMP-dst1's persistent requests as a
// share of its L1 misses, per workload (the paper: < 0.3%).
func (c *Commercial) renderPersistentShare(w io.Writer) {
	fmt.Fprintln(w, "Persistent requests as a share of L1 misses (paper: < 0.3%):")
	for _, wl := range c.Workloads {
		fmt.Fprintf(w, "  %-8s TokenCMP-dst1: %.3f%%\n", wl, 100*c.PersistentFraction(wl, "TokenCMP-dst1"))
	}
}
