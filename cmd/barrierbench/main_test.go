package main

import "testing"

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		seeds, barriers, jobs int
		ok                    bool
	}{
		{3, 20, 0, true},
		{1, 20, 0, true},
		{0, 20, 0, false},
		{-1, 20, 0, false},
		{3, 0, 0, true},
		{3, 20, 4, true},
		{3, -3, 0, false},
		{3, 20, -4, false},
	} {
		if err := validate(tc.seeds, tc.barriers, tc.jobs); (err == nil) != tc.ok {
			t.Errorf("validate(%d, %d, %d) = %v, want ok=%v", tc.seeds, tc.barriers, tc.jobs, err, tc.ok)
		}
	}
}
