package hier

import (
	"strings"
	"testing"

	"tokencmp/internal/counters"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
	"tokencmp/internal/topo"
)

// recorder keeps a copy of every delivered message.
type recorder struct{ got []network.Message }

func (r *recorder) Recv(m *network.Message) { r.got = append(r.got, *m) }

// Message kinds and flag of a made-up stack for the writeback tests.
const (
	testPut      = 5
	testWbGrant  = 6
	testWbData   = 7
	testWbCancel = 8
	testExclAux  = 1 << 4
)

// wbRig is one writeback buffer at an L1 that writes back to its L2
// bank, which records the Puts and the replies to its grants.
type wbRig struct {
	eng    *sim.Engine
	net    *network.Network
	cs     *counters.Set
	reps   *WbReplies
	wb     WbBuffer
	l1, l2 topo.NodeID
	bank   *recorder
	grant  network.Message
}

func newWbRig() *wbRig {
	g := topo.NewGeometry(1, 1, 1)
	eng := sim.NewEngine()
	r := &wbRig{eng: eng, net: network.New(eng, g, network.Default()), cs: counters.NewSet(), bank: &recorder{}}
	r.l1, r.l2 = g.L1DNode(0, 0), g.L2Node(0, 0)
	r.reps = &WbReplies{Put: testPut, Grant: testWbGrant, Data: testWbData, Cancel: testWbCancel,
		ExclAux: testExclAux, Race: r.cs.Counter(counters.WritebackRace)}
	r.wb = NewWbBuffer(r.l1, r.net, r.reps)
	r.net.Attach(r.l2, r.bank)
	r.grant = network.Message{Src: r.l2, Dst: r.l1}
	return r
}

// put starts a writeback of b to the bank and checks that the bank got
// exactly its Put.
func (r *wbRig) put(t *testing.T, b mem.Block, data uint64, dirty, excl bool) {
	t.Helper()
	r.wb.Put(r.l2, b, data, dirty, excl)
	r.eng.Run(0)
	if len(r.bank.got) != 1 {
		t.Fatalf("Put(%v): bank got %d messages, want 1", b, len(r.bank.got))
	}
	if m := r.bank.got[0]; m.Kind != testPut || m.Src != r.l1 || m.Dst != r.l2 || m.Block != b || m.HasData {
		t.Fatalf("Put(%v) sent %+v, want a dataless Put from the L1 to the bank", b, m)
	}
	r.bank.got = r.bank.got[:0]
}

// grantAndReply grants b's front writeback and returns the reply.
func (r *wbRig) grantAndReply(t *testing.T, b mem.Block) network.Message {
	t.Helper()
	gm := r.grant
	gm.Block = b
	r.wb.Grant(&gm)
	r.eng.Run(0)
	if len(r.bank.got) != 1 {
		t.Fatalf("grant for %v: bank got %d replies, want 1", b, len(r.bank.got))
	}
	reply := r.bank.got[0]
	r.bank.got = r.bank.got[:0]
	return reply
}

func TestWbBufferPopsFrontFirst(t *testing.T) {
	r := newWbRig()
	r.put(t, 5, 11, true, false)
	r.wb.Valid(5).Valid = false // a probe consumed the first copy
	r.put(t, 5, 22, false, true)

	if m := r.grantAndReply(t, 5); m.Kind != testWbCancel || m.HasData {
		t.Errorf("first grant: reply %v, want a dataless cancel", m)
	}
	m := r.grantAndReply(t, 5)
	if m.Kind != testWbData || !m.HasData || m.Data != 22 || m.Dirty || m.Aux != testExclAux {
		t.Errorf("second grant: reply %v, want data 22, clean, exclusive", m)
	}
	if got := r.cs.Value(counters.WritebackRace); got != 1 {
		t.Errorf("wb.race = %d, want 1", got)
	}
	if r.wb.q.Len() != 0 {
		t.Errorf("buffer keeps %d blocks after their grants, want 0", r.wb.q.Len())
	}
}

func TestWbBufferOnlyNewestIsValid(t *testing.T) {
	r := newWbRig()
	r.put(t, 5, 11, true, false)
	r.put(t, 9, 99, true, false)
	r.put(t, 5, 22, true, false)
	if w := r.wb.Valid(5); w == nil || w.Data != 22 {
		t.Fatalf("Valid(5) = %+v, want the newest copy (data 22)", w)
	}
	if w := r.wb.Valid(7); w != nil {
		t.Errorf("Valid(7) = %+v for an unbuffered block", w)
	}

	// The superseded copy is cancelled, the newest one written back.
	if m := r.grantAndReply(t, 5); m.Kind != testWbCancel {
		t.Errorf("first grant: reply %v, want a cancel", m)
	}
	if m := r.grantAndReply(t, 5); m.Kind != testWbData || m.Data != 22 || !m.Dirty || m.Aux != 0 {
		t.Errorf("second grant: reply %v, want dirty data 22", m)
	}
	if m := r.grantAndReply(t, 9); m.Kind != testWbData || m.Data != 99 {
		t.Errorf("other block: reply %v, want data 99", m)
	}
	if got := r.cs.Value(counters.WritebackRace); got != 1 {
		t.Errorf("wb.race = %d, want 1", got)
	}
}

func TestWbRepliesGrantPutAnswersTheEvictor(t *testing.T) {
	r := newWbRig()
	l1 := &recorder{}
	r.net.Attach(r.l1, l1)
	r.put(t, 5, 11, true, false)
	put := network.Message{Src: r.l1, Dst: r.l2, Block: 5, Kind: testPut}
	r.reps.GrantPut(r.net, r.l2, &put)
	r.eng.Run(0)
	if len(l1.got) != 1 {
		t.Fatalf("L1 got %d messages, want 1 grant", len(l1.got))
	}
	if m := l1.got[0]; m.Kind != testWbGrant || m.Src != r.l2 || m.Block != 5 || m.HasData {
		t.Errorf("grant = %+v, want a dataless grant for block 5 from the bank", m)
	}
	if len(r.bank.got) != 0 {
		t.Errorf("bank got %d messages, want none", len(r.bank.got))
	}
}

func TestWbBufferGrantWithoutWritebackPanics(t *testing.T) {
	r := newWbRig()
	defer func() {
		if p := recover(); p == nil || !strings.Contains(p.(string), "without a buffered writeback") {
			t.Errorf("recovered %v, want a missing-writeback panic", p)
		}
	}()
	gm := r.grant
	gm.Block = 3
	r.wb.Grant(&gm)
}
