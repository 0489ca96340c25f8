package main

import (
	"slices"
	"testing"
)

// parseCase edits the default flags and wants the selected ids, or nil
// for an error.
type parseCase struct {
	name string
	edit func(*flagValues)
	want []string
}

func checkParse(t *testing.T, cases []parseCase) {
	t.Helper()
	for _, tc := range cases {
		f := flagValues{fig: "all", seeds: 3, acquires: 32, barriers: 20, txns: 30}
		tc.edit(&f)
		got, err := parse(f)
		if (err == nil) != (tc.want != nil) || !slices.Equal(got, tc.want) {
			t.Errorf("%s: parse = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
}

// TestParse covers the selection rules every figure shares.
func TestParse(t *testing.T) {
	checkParse(t, []parseCase{
		{"defaults", func(*flagValues) {}, []string{"2", "3", "4", "6", "7a", "7b"}},
		{"empty fig", func(f *flagValues) { f.fig = "" }, nil},
		{"empty id", func(f *flagValues) { f.fig = "2," }, nil},
		{"unknown id", func(f *flagValues) { f.fig = "5" }, nil},
		{"one unknown id", func(f *flagValues) { f.fig = "2,8" }, nil},
		{"All", func(f *flagValues) { f.fig = "All" }, nil},
	})
}

// TestParseLockFigures covers Figures 2 and 3 and their -acquires flag.
func TestParseLockFigures(t *testing.T) {
	checkParse(t, []parseCase{
		{"fig 2", func(f *flagValues) { f.fig = "2" }, []string{"2"}},
		{"fig 3", func(f *flagValues) { f.fig = "3" }, []string{"3"}},
		{"fig 2,3", func(f *flagValues) { f.fig = "2,3" }, []string{"2", "3"}},
		{"one seed", func(f *flagValues) { f.fig, f.seeds = "2,3", 1 }, []string{"2", "3"}},
		{"zero acquires keeps default", func(f *flagValues) { f.fig, f.acquires = "2,3", 0 }, []string{"2", "3"}},
		{"positive jobs", func(f *flagValues) { f.fig, f.jobs = "2,3", 4 }, []string{"2", "3"}},
		{"misspelt id", func(f *flagValues) { f.fig = "2b" }, nil},
		{"seeds 0", func(f *flagValues) { f.fig, f.seeds = "2", 0 }, nil},
		{"seeds -1", func(f *flagValues) { f.fig, f.seeds = "2,3", -1 }, nil},
		{"acquires -2", func(f *flagValues) { f.fig, f.acquires = "2,3", -2 }, nil},
		{"jobs -4", func(f *flagValues) { f.fig, f.jobs = "2", -4 }, nil},
	})
}

// TestParseBarrierTable covers Table 4 and its -barriers flag.
func TestParseBarrierTable(t *testing.T) {
	checkParse(t, []parseCase{
		{"fig 4", func(f *flagValues) { f.fig = "4" }, []string{"4"}},
		{"one seed", func(f *flagValues) { f.fig, f.seeds = "4", 1 }, []string{"4"}},
		{"zero barriers keeps default", func(f *flagValues) { f.fig, f.barriers = "4", 0 }, []string{"4"}},
		{"positive jobs", func(f *flagValues) { f.fig, f.jobs = "4", 4 }, []string{"4"}},
		{"seeds 0", func(f *flagValues) { f.fig, f.seeds = "4", 0 }, nil},
		{"seeds -1", func(f *flagValues) { f.fig, f.seeds = "4", -1 }, nil},
		{"barriers -3", func(f *flagValues) { f.fig, f.barriers = "4", -3 }, nil},
		{"jobs -4", func(f *flagValues) { f.fig, f.jobs = "4", -4 }, nil},
	})
}

// TestParseCommercialFigures covers Figures 6, 7a and 7b and their
// -txns flag.
func TestParseCommercialFigures(t *testing.T) {
	checkParse(t, []parseCase{
		{"fig 6", func(f *flagValues) { f.fig = "6" }, []string{"6"}},
		{"fig 7a", func(f *flagValues) { f.fig = "7a" }, []string{"7a"}},
		{"fig 7b", func(f *flagValues) { f.fig = "7b" }, []string{"7b"}},
		{"fig 6,7a,7b", func(f *flagValues) { f.fig = "6,7a,7b" }, []string{"6", "7a", "7b"}},
		{"fig 7b,6,7a", func(f *flagValues) { f.fig = "7b,6,7a" }, []string{"7b", "6", "7a"}},
		{"one seed", func(f *flagValues) { f.fig, f.seeds = "6,7a,7b", 1 }, []string{"6", "7a", "7b"}},
		{"zero txns keeps default", func(f *flagValues) { f.fig, f.txns = "6,7a,7b", 0 }, []string{"6", "7a", "7b"}},
		{"positive jobs", func(f *flagValues) { f.fig, f.jobs = "6", 2 }, []string{"6"}},
		{"7A", func(f *flagValues) { f.fig = "7A" }, nil},
		{"misspelt id", func(f *flagValues) { f.fig = "7" }, nil},
		{"seeds 0", func(f *flagValues) { f.fig, f.seeds = "6", 0 }, nil},
		{"seeds -2", func(f *flagValues) { f.fig, f.seeds = "6,7a,7b", -2 }, nil},
		{"txns -1", func(f *flagValues) { f.fig, f.txns = "6,7a,7b", -1 }, nil},
		{"jobs -4", func(f *flagValues) { f.fig, f.jobs = "6", -4 }, nil},
	})
}
