package directory

import (
	"fmt"
	"testing"

	"tokencmp/internal/cpu"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
)

// TestFlagSpinInvalidation reproduces the barrier flag pattern: three
// processors spin-loading a flag while a fourth flips it with pauses.
// Every spinner must observe each new value eventually.
func TestFlagSpinInvalidation(t *testing.T) {
	eng, sys := testSystem(t, true) // zero-dir exposes the timing race
	const flag = mem.Addr(0x80080)
	b := mem.BlockOf(flag)
	const rounds = 6

	seen := map[int]uint64{1: 0, 2: 0, 3: 0}
	var spin func(proc int)
	spin = func(proc int) {
		d, _ := sys.Ports(proc)
		d.Access(cpu.Load, flag, 0, func(v uint64) {
			if v > seen[proc] {
				seen[proc] = v
			}
			if v >= rounds {
				return
			}
			spin(proc)
		})
	}
	for p := 1; p <= 3; p++ {
		spin(p)
	}

	var trace []string
	sys.Net.Monitor = func(m *network.Message) {
		if m.Block == b && len(trace) < 400 {
			trace = append(trace, fmt.Sprintf("%v..%v %v->%v %s aux=%d data=%d hasData=%v proc=%d",
				m.SentAt, eng.Now(), m.Src, m.Dst, kinds.Name(m.Kind), m.Aux, m.Data, m.HasData, m.Proc))
		}
	}
	defer func() {
		if t.Failed() {
			for _, l := range trace {
				t.Log(l)
			}
		}
	}()

	writer, _ := sys.Ports(0)
	var flip func(v uint64)
	flip = func(v uint64) {
		if v > rounds {
			return
		}
		eng.ScheduleCall(sim.NS(3000), func(_, _ any) {
			writer.Access(cpu.Store, flag, v, func(uint64) { flip(v + 1) })
		}, nil, nil)
	}
	flip(1)

	done := func() bool {
		for _, v := range seen {
			if v < rounds {
				return false
			}
		}
		return true
	}
	if !eng.RunUntil(done, 5_000_000) {
		t.Fatalf("spinners stuck: seen=%v now=%v\nstate:\n%s", seen, eng.Now(), sys.dumpBlock(b))
	}
}
