package main

import "testing"

func TestFigures(t *testing.T) {
	for _, tc := range []struct {
		what               string
		seeds              int
		fig6, fig7a, fig7b bool
		ok                 bool
	}{
		{"runtime", 3, true, false, false, true},
		{"inter", 3, false, true, false, true},
		{"intra", 3, false, false, true, true},
		{"all", 3, true, true, true, true},
		{"all", 1, true, true, true, true},
		{"", 3, false, false, false, false},
		{"All", 3, false, false, false, false},
		{"runtim", 3, false, false, false, false},
		{"runtime", 0, false, false, false, false},
		{"all", -2, false, false, false, false},
	} {
		fig6, fig7a, fig7b, err := figures(tc.what, tc.seeds)
		if (err == nil) != tc.ok || fig6 != tc.fig6 || fig7a != tc.fig7a || fig7b != tc.fig7b {
			t.Errorf("figures(%q, %d) = %v, %v, %v, %v; want %v, %v, %v, ok=%v",
				tc.what, tc.seeds, fig6, fig7a, fig7b, err, tc.fig6, tc.fig7a, tc.fig7b, tc.ok)
		}
	}
}
