package main

import "testing"

func TestFigures(t *testing.T) {
	for _, tc := range []struct {
		what               string
		seeds, txns, jobs  int
		fig6, fig7a, fig7b bool
		ok                 bool
	}{
		{"runtime", 3, 30, 0, true, false, false, true},
		{"inter", 3, 30, 0, false, true, false, true},
		{"intra", 3, 30, 0, false, false, true, true},
		{"all", 3, 30, 0, true, true, true, true},
		{"all", 1, 30, 0, true, true, true, true},
		{"", 3, 30, 0, false, false, false, false},
		{"All", 3, 30, 0, false, false, false, false},
		{"runtim", 3, 30, 0, false, false, false, false},
		{"runtime", 0, 30, 0, false, false, false, false},
		{"all", -2, 30, 0, false, false, false, false},
		{"all", 3, 0, 0, true, true, true, true},
		{"runtime", 3, 30, 2, true, false, false, true},
		{"all", 3, -1, 0, false, false, false, false},
		{"runtime", 3, 30, -4, false, false, false, false},
	} {
		fig6, fig7a, fig7b, err := figures(tc.what, tc.seeds, tc.txns, tc.jobs)
		if (err == nil) != tc.ok || fig6 != tc.fig6 || fig7a != tc.fig7a || fig7b != tc.fig7b {
			t.Errorf("figures(%q, %d, %d, %d) = %v, %v, %v, %v; want %v, %v, %v, ok=%v",
				tc.what, tc.seeds, tc.txns, tc.jobs, fig6, fig7a, fig7b, err, tc.fig6, tc.fig7a, tc.fig7b, tc.ok)
		}
	}
}
