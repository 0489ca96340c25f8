package main

import "testing"

func TestFigures(t *testing.T) {
	for _, tc := range []struct {
		what               string
		fig6, fig7a, fig7b bool
		ok                 bool
	}{
		{"runtime", true, false, false, true},
		{"inter", false, true, false, true},
		{"intra", false, false, true, true},
		{"all", true, true, true, true},
		{"", false, false, false, false},
		{"All", false, false, false, false},
		{"runtim", false, false, false, false},
	} {
		fig6, fig7a, fig7b, err := figures(tc.what)
		if (err == nil) != tc.ok || fig6 != tc.fig6 || fig7a != tc.fig7a || fig7b != tc.fig7b {
			t.Errorf("figures(%q) = %v, %v, %v, %v; want %v, %v, %v, ok=%v",
				tc.what, fig6, fig7a, fig7b, err, tc.fig6, tc.fig7a, tc.fig7b, tc.ok)
		}
	}
}
