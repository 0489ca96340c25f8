package main

import "testing"

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		seeds int
		ok    bool
	}{
		{3, true},
		{1, true},
		{0, false},
		{-1, false},
	} {
		if err := validate(tc.seeds); (err == nil) != tc.ok {
			t.Errorf("validate(%d) = %v, want ok=%v", tc.seeds, err, tc.ok)
		}
	}
}
