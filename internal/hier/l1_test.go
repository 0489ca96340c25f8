package hier

import (
	"testing"

	"tokencmp/internal/counters"
	"tokencmp/internal/mem"
	"tokencmp/internal/sim"
)

func TestL1SlotLifecycle(t *testing.T) {
	type txn struct{ n int }
	eng, cs := sim.NewEngine(), counters.NewSet()
	var f L1[txn]
	hit := false
	var got []uint64
	done := func(v uint64) { got = append(got, v) }
	f.Init(eng, cs, 3, false, func() {
		if f.Miss.Txn.n != 0 {
			t.Errorf("access starts with Txn %+v, want it zeroed", f.Miss.Txn)
		}
		if hit {
			f.Hit(7)
			return
		}
		f.Missed()
		f.Miss.Txn.n = 5
	})

	f.Access(0, mem.Addr(64*mem.BlockSize), 0, done)
	if f.For(64) != nil {
		t.Error("parked access reported as the outstanding miss")
	}
	eng.Run(0)
	if eng.Now() != L1Latency {
		t.Errorf("hit check ran at %v, want %v", eng.Now(), L1Latency)
	}
	if m := f.For(64); m == nil || m.Txn.n != 5 {
		t.Fatalf("For(64) = %+v, want the outstanding miss", m)
	}
	if f.For(65) != nil {
		t.Error("For(65) found the miss on block 64")
	}
	f.Finish()(9)
	if f.For(64) != nil {
		t.Error("finished miss still outstanding")
	}

	hit = true
	f.Access(0, mem.Addr(64*mem.BlockSize), 0, done)
	eng.Run(0)
	if len(got) != 2 || got[0] != 9 || got[1] != 7 {
		t.Errorf("completions = %v, want [9 7]", got)
	}
	if h, m := cs.Value(counters.L1Hit), cs.Value(counters.L1Miss); h != 1 || m != 1 {
		t.Errorf("l1.hit, l1.miss = %d, %d; want 1, 1", h, m)
	}
}
