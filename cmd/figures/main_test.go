package main

import (
	"slices"
	"testing"
)

// parseCase sets -fig and -jobs and wants the selected ids, or nil for
// an error.
type parseCase struct {
	name string
	fig  string
	jobs int
	want []string
}

func checkParse(t *testing.T, cases []parseCase) {
	t.Helper()
	for _, tc := range cases {
		got, err := parse(tc.fig, tc.jobs)
		if (err == nil) != (tc.want != nil) || !slices.Equal(got, tc.want) {
			t.Errorf("%s: parse = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
}

// TestParse covers the selection rules every figure shares. The rules
// on -seeds, -acquires, -barriers and -txns are Spec.Validate's, and
// experiments.TestRunFiguresRejectsInvalidOptions covers them.
func TestParse(t *testing.T) {
	checkParse(t, []parseCase{
		{"defaults", "all", 0, []string{"2", "3", "4", "6", "7a", "7b"}},
		{"empty fig", "", 0, nil},
		{"empty id", "2,", 0, nil},
		{"unknown id", "5", 0, nil},
		{"one unknown id", "2,8", 0, nil},
		{"All", "All", 0, nil},
	})
}

// TestParseLockFigures covers Figures 2 and 3.
func TestParseLockFigures(t *testing.T) {
	checkParse(t, []parseCase{
		{"fig 2", "2", 0, []string{"2"}},
		{"fig 3", "3", 0, []string{"3"}},
		{"fig 2,3", "2,3", 0, []string{"2", "3"}},
		{"positive jobs", "2,3", 4, []string{"2", "3"}},
		{"misspelt id", "2b", 0, nil},
		{"jobs -4", "2", -4, nil},
	})
}

// TestParseBarrierTable covers Table 4.
func TestParseBarrierTable(t *testing.T) {
	checkParse(t, []parseCase{
		{"fig 4", "4", 0, []string{"4"}},
		{"positive jobs", "4", 4, []string{"4"}},
		{"jobs -4", "4", -4, nil},
	})
}

// TestParseCommercialFigures covers Figures 6, 7a and 7b.
func TestParseCommercialFigures(t *testing.T) {
	checkParse(t, []parseCase{
		{"fig 6", "6", 0, []string{"6"}},
		{"fig 7a", "7a", 0, []string{"7a"}},
		{"fig 7b", "7b", 0, []string{"7b"}},
		{"fig 6,7a,7b", "6,7a,7b", 0, []string{"6", "7a", "7b"}},
		{"fig 7b,6,7a", "7b,6,7a", 0, []string{"7b", "6", "7a"}},
		{"positive jobs", "6", 2, []string{"6"}},
		{"7A", "7A", 0, nil},
		{"misspelt id", "7", 0, nil},
		{"jobs -4", "6", -4, nil},
	})
}
