package main

import "testing"

func TestFigures(t *testing.T) {
	for _, tc := range []struct {
		mode                  string
		seeds, acquires, jobs int
		fig2, fig3            bool
		ok                    bool
	}{
		{"persistent", 3, 32, 0, true, false, true},
		{"transient", 3, 32, 0, false, true, true},
		{"both", 3, 32, 0, true, true, true},
		{"both", 1, 32, 0, true, true, true},
		{"", 3, 32, 0, false, false, false},
		{"Both", 3, 32, 0, false, false, false},
		{"persistant", 3, 32, 0, false, false, false},
		{"persistent", 0, 32, 0, false, false, false},
		{"both", -1, 32, 0, false, false, false},
		{"both", 3, 0, 0, true, true, true},
		{"both", 3, 32, 4, true, true, true},
		{"both", 3, -2, 0, false, false, false},
		{"persistent", 3, 32, -4, false, false, false},
	} {
		fig2, fig3, err := figures(tc.mode, tc.seeds, tc.acquires, tc.jobs)
		if (err == nil) != tc.ok || fig2 != tc.fig2 || fig3 != tc.fig3 {
			t.Errorf("figures(%q, %d, %d, %d) = %v, %v, %v; want %v, %v, ok=%v",
				tc.mode, tc.seeds, tc.acquires, tc.jobs, fig2, fig3, err, tc.fig2, tc.fig3, tc.ok)
		}
	}
}
