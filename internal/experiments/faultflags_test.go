package experiments

import (
	"flag"
	"testing"

	"tokencmp/internal/network"
	"tokencmp/internal/sim"
)

// TestFaultFlagsResolve checks that the flags read into the plan as
// given: the ranges are Spec.Validate's (see TestSpecValidate and
// network.TestFaultConfigValidate), and a -jitter past picosecond
// sim.Time clamps rather than wrapping into range.
func TestFaultFlagsResolve(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want network.FaultConfig
	}{
		{nil, network.FaultConfig{Seed: 1}},
		{[]string{"-faultseed", "9", "-drop", "0.99", "-dup", "1", "-reorder", "1", "-jitter", "3"},
			network.FaultConfig{Seed: 9, Drop: 0.99, Dup: 1, Reorder: 1, Jitter: sim.NS(3)}},
		{[]string{"-drop", "1", "-dup", "1.5", "-reorder", "-1", "-jitter", "-1"},
			network.FaultConfig{Seed: 1, Drop: 1, Dup: 1.5, Reorder: -1, Jitter: sim.NS(-1)}},
		{[]string{"-jitter", "1000000"}, network.FaultConfig{Seed: 1, Jitter: MaxJitter}},
		{[]string{"-jitter", "18446744073709552"}, network.FaultConfig{Seed: 1, Jitter: sim.NS(9223372036854775)}},
	} {
		fs := flag.NewFlagSet("faults", flag.ContinueOnError)
		resolve := RegisterFaultFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: parse: %v", tc.args, err)
		}
		if got := resolve(); got != tc.want {
			t.Errorf("%v: got %+v, want %+v", tc.args, got, tc.want)
		}
	}
}
