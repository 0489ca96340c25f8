package main

import (
	"testing"
	"time"
)

// TestValidate covers the two flags that are not fields of the run's
// Spec; experiments.TestSpecValidate covers the rest.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		jobs    int
		timeout time.Duration
		ok      bool
	}{
		{"zero jobs and timeout", 0, 0, true},
		{"positive jobs and timeout", 3, time.Second, true},
		{"jobs -3", -3, 0, false},
		{"timeout -1s", 0, -time.Second, false},
	} {
		if err := validate(tc.jobs, tc.timeout); (err == nil) != tc.ok {
			t.Errorf("%s: validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
