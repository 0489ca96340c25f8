package main

import (
	"testing"
	"time"

	"tokencmp/internal/experiments"
)

func TestValidate(t *testing.T) {
	ok := flagValues{cmps: 4, procs: 4, banks: 4, locks: 32, acquires: 64, barriers: 20, txns: 40, seeds: 1}
	for _, tc := range []struct {
		name string
		edit func(*flagValues)
		ok   bool
	}{
		{"defaults", func(*flagValues) {}, true},
		{"zero knobs keep defaults", func(f *flagValues) { f.locks, f.acquires, f.barriers, f.txns = 0, 0, 0, 0 }, true},
		{"zero jitter, jobs and timeout", func(f *flagValues) { f.workJitter, f.jobs, f.timeout = 0, 0, 0 }, true},
		{"positive jitter, jobs and timeout", func(f *flagValues) { f.workJitter, f.jobs, f.timeout = 5, 3, time.Second }, true},
		{"one of everything", func(f *flagValues) { f.cmps, f.procs, f.banks = 1, 1, 1 }, true},
		{"cmps 0", func(f *flagValues) { f.cmps = 0 }, false},
		{"cmps -1", func(f *flagValues) { f.cmps = -1 }, false},
		{"procs 0", func(f *flagValues) { f.procs = 0 }, false},
		{"banks 0", func(f *flagValues) { f.banks = 0 }, false},
		{"locks -1", func(f *flagValues) { f.locks = -1 }, false},
		{"acquires -5", func(f *flagValues) { f.acquires = -5 }, false},
		{"barriers -1", func(f *flagValues) { f.barriers = -1 }, false},
		{"txns -1", func(f *flagValues) { f.txns = -1 }, false},
		{"seeds 0", func(f *flagValues) { f.seeds = 0 }, false},
		{"jobs -3", func(f *flagValues) { f.jobs = -3 }, false},
		{"workjitter -5", func(f *flagValues) { f.workJitter = -5 }, false},
		{"workjitter at the sim.Time bound", func(f *flagValues) { f.workJitter = experiments.MaxNS }, true},
		{"workjitter past the sim.Time bound", func(f *flagValues) { f.workJitter = experiments.MaxNS + 1 }, false},
		{"timeout -1s", func(f *flagValues) { f.timeout = -time.Second }, false},
	} {
		f := ok
		tc.edit(&f)
		if err := validate(f); (err == nil) != tc.ok {
			t.Errorf("%s: validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
