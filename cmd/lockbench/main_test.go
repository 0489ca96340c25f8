package main

import "testing"

func TestFigures(t *testing.T) {
	for _, tc := range []struct {
		mode       string
		seeds      int
		fig2, fig3 bool
		ok         bool
	}{
		{"persistent", 3, true, false, true},
		{"transient", 3, false, true, true},
		{"both", 3, true, true, true},
		{"both", 1, true, true, true},
		{"", 3, false, false, false},
		{"Both", 3, false, false, false},
		{"persistant", 3, false, false, false},
		{"persistent", 0, false, false, false},
		{"both", -1, false, false, false},
	} {
		fig2, fig3, err := figures(tc.mode, tc.seeds)
		if (err == nil) != tc.ok || fig2 != tc.fig2 || fig3 != tc.fig3 {
			t.Errorf("figures(%q, %d) = %v, %v, %v; want %v, %v, ok=%v",
				tc.mode, tc.seeds, fig2, fig3, err, tc.fig2, tc.fig3, tc.ok)
		}
	}
}
