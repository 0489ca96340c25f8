package token

import (
	"testing"
	"testing/quick"

	"tokencmp/internal/sim"
)

func TestStatePermissions(t *testing.T) {
	const T = 8
	s := &State{}
	if s.CanRead() || s.CanWrite(T) {
		t.Error("empty state has permissions")
	}
	s.Merge(1, false, true, 7, false)
	if !s.CanRead() || s.CanWrite(T) {
		t.Error("one token + data should read but not write")
	}
	s.Merge(T-1, true, true, 7, false)
	if !s.CanWrite(T) {
		t.Error("all tokens + data should write")
	}
}

func TestTakeAllEmpties(t *testing.T) {
	s := &State{Tokens: 4, Owner: true, HasData: true, Data: 11, Dirty: true}
	tk, own, hasData, data, dirty := s.TakeAll()
	if tk != 4 || !own || !hasData || data != 11 || !dirty {
		t.Errorf("TakeAll = (%d,%v,%v,%d,%v)", tk, own, hasData, data, dirty)
	}
	if s.Tokens != 0 || s.Owner || s.HasData {
		t.Error("state not empty after TakeAll")
	}
}

func TestTokenCountFor(t *testing.T) {
	cases := map[int]int{1: 2, 3: 4, 4: 8, 47: 64, 48: 64, 63: 64, 64: 128}
	for caches, want := range cases {
		if got := TokenCountFor(caches); got != want {
			t.Errorf("TokenCountFor(%d) = %d, want %d", caches, got, want)
		}
	}
}

// Property: TokenCountFor always strictly exceeds the cache count (the
// persistent-read guarantee) and is a power of two.
func TestPropertyTokenCount(t *testing.T) {
	f := func(c uint8) bool {
		n := TokenCountFor(int(c))
		return n > int(c) && n&(n-1) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Merge then TakeAll conserves the token count.
func TestPropertyMergeTakeConserves(t *testing.T) {
	f := func(a, b uint8, owner bool) bool {
		s := &State{}
		s.Merge(int(a), false, false, 0, false)
		s.Merge(int(b), owner, owner, 1, false)
		tk, _, _, _, _ := s.TakeAll()
		return tk == int(a)+int(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// find returns processor proc's request in t, or nil if it has none.
func find(t *DistributedTable, proc int) *Entry {
	if t.valid[proc/64]&(1<<(proc%64)) == 0 {
		return nil
	}
	return &t.entries[proc]
}

func TestDistributedTablePriority(t *testing.T) {
	tb := NewDistributedTable(4)
	tb.Insert(2, 5, ReqWrite, 12)
	tb.Insert(1, 5, ReqRead, 11)
	tb.Insert(3, 6, ReqWrite, 13)
	e := tb.Active(5)
	if e == nil || e.Proc != 1 || e.Kind != ReqRead {
		t.Errorf("active = %+v, want proc 1 read", e)
	}
	// Processor 1's request is the active one for its block; processor
	// 2's is valid but loses to it.
	if p1 := find(&tb, 1); p1 == nil || tb.Active(p1.Block) != p1 {
		t.Error("proc 1 not active for its block")
	}
	if p2 := find(&tb, 2); p2 == nil || tb.Active(p2.Block) == p2 {
		t.Error("proc 2 active over proc 1")
	}
	if find(&tb, 0) != nil {
		t.Error("proc 0 has a request")
	}
	// Deactivating the winner promotes the next.
	tb.Deactivate(1)
	if find(&tb, 1) != nil {
		t.Error("proc 1 still has a request after deactivation")
	}
	if e := tb.Active(5); e == nil || e.Proc != 2 {
		t.Errorf("next active = %+v, want proc 2", e)
	}
	// Block 6 is independent.
	if e := tb.Active(6); e == nil || e.Proc != 3 {
		t.Errorf("block 6 active = %+v, want proc 3", e)
	}
}

func TestMarkingMechanism(t *testing.T) {
	tb := NewDistributedTable(4)
	tb.Insert(0, 5, ReqWrite, 10)
	tb.Insert(2, 5, ReqWrite, 12)
	tb.Deactivate(0)
	tb.MarkAllFor(5)
	if !tb.HasMarked(5) {
		t.Fatal("entry not marked")
	}
	tb.Deactivate(2)
	if tb.HasMarked(5) {
		t.Fatal("mark survived deactivation")
	}
}

func TestArbiterFIFO(t *testing.T) {
	var a Arbiter
	if !a.Request(9, 0, ReqWrite, 10) {
		t.Fatal("first request should activate")
	}
	if a.Request(9, 1, ReqRead, 11) {
		t.Fatal("second request should queue")
	}
	_, hasNext := a.Cancel(9, 0)
	next, _ := a.ActiveFor(9)
	if !hasNext || next.Proc != 1 || next.Kind != ReqRead {
		t.Errorf("next = proc %d (%v)", next.Proc, hasNext)
	}
	if _, hasNext := a.Cancel(9, 1); hasNext {
		t.Error("queue should be empty")
	}
}

func TestArbiterCancelQueued(t *testing.T) {
	var a Arbiter
	a.Request(9, 0, ReqWrite, 10)
	a.Request(9, 1, ReqWrite, 11)
	a.Request(9, 2, ReqWrite, 12)
	// Cancel the queued (not active) proc 1.
	if wasActive, _ := a.Cancel(9, 1); wasActive {
		t.Fatal("proc 1 was not active")
	}
	_, hasNext := a.Cancel(9, 0) // finish the active one
	next, _ := a.ActiveFor(9)
	if !hasNext || next.Proc != 2 || !next.Valid {
		t.Errorf("next after cancel = proc %d (%v)", next.Proc, hasNext)
	}
}

func TestTimeoutEstimator(t *testing.T) {
	e := NewTimeoutEstimator(sim.NS(400))
	if e.Timeout() != sim.NS(800) {
		t.Errorf("initial timeout = %v, want 800ns", e.Timeout())
	}
	e.Observe(sim.NS(100))
	if e.Timeout() != sim.NS(200) {
		t.Errorf("timeout after observe = %v, want 200ns", e.Timeout())
	}
	// EWMA pulls toward new samples.
	for i := 0; i < 20; i++ {
		e.Observe(sim.NS(300))
	}
	if e.Timeout() < sim.NS(500) {
		t.Errorf("timeout = %v, want near 600ns", e.Timeout())
	}
	// Floor applies.
	f := NewTimeoutEstimator(sim.NS(400))
	f.Observe(sim.NS(1))
	if f.Timeout() != f.Floor {
		t.Errorf("floored timeout = %v, want %v", f.Timeout(), f.Floor)
	}
}
