package experiments

import (
	"flag"
	"testing"

	"tokencmp/internal/network"
	"tokencmp/internal/sim"
)

// TestFaultFlagsResolve checks the resolver's ranges: drop in [0, 1),
// dup and reorder in [0, 1], jitter >= 0 and within sim.Time in
// picoseconds, and no NaN.
func TestFaultFlagsResolve(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want network.FaultConfig
		ok   bool
	}{
		{nil, network.FaultConfig{Seed: 1}, true},
		{[]string{"-faultseed", "9", "-drop", "0.99", "-dup", "1", "-reorder", "1", "-jitter", "3"},
			network.FaultConfig{Seed: 9, Drop: 0.99, Dup: 1, Reorder: 1, Jitter: sim.NS(3)}, true},
		{[]string{"-drop", "1"}, network.FaultConfig{}, false},
		{[]string{"-drop", "-0.5"}, network.FaultConfig{}, false},
		{[]string{"-drop", "NaN"}, network.FaultConfig{}, false},
		{[]string{"-dup", "1.5"}, network.FaultConfig{}, false},
		{[]string{"-dup", "-0.1"}, network.FaultConfig{}, false},
		{[]string{"-dup", "NaN"}, network.FaultConfig{}, false},
		{[]string{"-reorder", "7"}, network.FaultConfig{}, false},
		{[]string{"-reorder", "-1"}, network.FaultConfig{}, false},
		{[]string{"-reorder", "NaN"}, network.FaultConfig{}, false},
		{[]string{"-jitter", "-1"}, network.FaultConfig{}, false},
		{[]string{"-jitter", "9223372036854775"}, network.FaultConfig{Seed: 1, Jitter: sim.NS(9223372036854775)}, true},
		{[]string{"-jitter", "9223372036854776"}, network.FaultConfig{}, false},
	} {
		fs := flag.NewFlagSet("faults", flag.ContinueOnError)
		resolve := RegisterFaultFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: parse: %v", tc.args, err)
		}
		got, err := resolve()
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("%v: got %+v, %v; want %+v, ok=%v", tc.args, got, err, tc.want, tc.ok)
		}
	}
}
