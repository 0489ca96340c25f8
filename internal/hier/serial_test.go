package hier

import (
	"testing"

	"tokencmp/internal/network"
	"tokencmp/internal/sim"
	"tokencmp/internal/topo"
)

func TestSerializerFIFOPerBlock(t *testing.T) {
	var s Serializer[int32]
	if !s.Idle() {
		t.Fatal("zero Serializer is not idle")
	}
	s.Start(1, 10)
	s.Start(2, 20)
	for i := int32(0); i < 3; i++ {
		s.Defer(&network.Message{Block: 1, Aux: i})
		s.Defer(&network.Message{Block: 2, Aux: 100 + i})
	}
	if k := s.Busy(1); k == nil || *k != 10 {
		t.Errorf("Busy(1) = %v; want 10", k)
	}
	if s.Busy(3) != nil {
		t.Error("Busy(3) for a block never started")
	}

	s.End(1)
	for i := int32(0); i < 3; i++ {
		if m, ok := s.Pop(1); !ok || m.Block != 1 || m.Aux != i {
			t.Errorf("block 1 pop %d = %v, %v; want Aux %d", i, m, ok, i)
		}
	}
	if m, ok := s.Pop(1); ok {
		t.Errorf("block 1 popped %v past its queue", m)
	}
	// Block 2 is still busy with its whole queue.
	if k := s.Busy(2); k == nil || *k != 20 {
		t.Errorf("Busy(2) = %v after block 1 drained; want 20", k)
	}
	s.End(2)
	for i := int32(0); i < 3; i++ {
		if m, ok := s.Pop(2); !ok || m.Block != 2 || m.Aux != 100+i {
			t.Errorf("block 2 pop %d = %v, %v; want Aux %d", i, m, ok, 100+i)
		}
	}
	if !s.Idle() || s.busy.Len() != 0 || s.queue.Len() != 0 {
		t.Errorf("drained serializer keeps %d busy blocks and %d queued messages", s.busy.Len(), s.queue.Len())
	}
}

// TestSerializerCopiesDeferredMessage defers a pooled message, frees it
// and reuses its slot; the deferred copy must be intact. Under
// -tags simdebug the free also scrambles the original.
func TestSerializerCopiesDeferredMessage(t *testing.T) {
	g := topo.NewGeometry(1, 1, 1)
	net := network.New(sim.NewEngine(), g, network.Default())
	var s Serializer[bool]
	s.Start(7, true)
	m := net.NewMessage()
	*m = network.Message{Src: g.L1DNode(0, 0), Dst: g.L2Node(0, 0), Block: 7, Kind: 3, Data: 42, Requestor: g.L1DNode(0, 0)}
	want := *m
	s.Defer(m)
	net.Free(m)
	reused := net.NewMessage()
	*reused = network.Message{Block: 8, Kind: 5, Data: 13}
	s.End(7)
	got, ok := s.Pop(7)
	if !ok || got != want {
		t.Errorf("popped %v, %v; want %v", got, ok, want)
	}
	net.Free(reused)
}
