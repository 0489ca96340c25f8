package main

import "testing"

func TestFigures(t *testing.T) {
	for _, tc := range []struct {
		mode       string
		fig2, fig3 bool
		ok         bool
	}{
		{"persistent", true, false, true},
		{"transient", false, true, true},
		{"both", true, true, true},
		{"", false, false, false},
		{"Both", false, false, false},
		{"persistant", false, false, false},
	} {
		fig2, fig3, err := figures(tc.mode)
		if (err == nil) != tc.ok || fig2 != tc.fig2 || fig3 != tc.fig3 {
			t.Errorf("figures(%q) = %v, %v, %v; want %v, %v, ok=%v", tc.mode, fig2, fig3, err, tc.fig2, tc.fig3, tc.ok)
		}
	}
}
