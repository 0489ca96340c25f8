package hier

import (
	"testing"

	"tokencmp/internal/network"
	"tokencmp/internal/sim"
	"tokencmp/internal/topo"
)

func TestSerializerFIFOPerBlock(t *testing.T) {
	var s Serializer[int32]
	if s.busy.Len() != 0 || s.queue.Len() != 0 {
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
	if s.busy.Len() != 0 || s.queue.Len() != 0 {
		t.Errorf("drained serializer keeps %d busy blocks and %d queued messages", s.busy.Len(), s.queue.Len())
	}
}

// deferSink queues every delivered message in a Serializer, the way a
// controller defers a request behind a busy block, and keeps the value
// it was delivered with.
type deferSink struct {
	s    *Serializer[bool]
	seen *network.Message
}

func (d *deferSink) Recv(m *network.Message) {
	*d.seen = *m
	d.s.Defer(m)
}

// TestSerializerCopiesDeferredMessage defers a delivered message, lets
// the network reclaim it and reuses its slot for the next send; the
// deferred copy must be intact. Under -tags simdebug the reclaim also
// scrambles the original.
func TestSerializerCopiesDeferredMessage(t *testing.T) {
	g := topo.NewGeometry(1, 1, 1)
	eng := sim.NewEngine()
	net := network.New(eng, g, network.Default())
	l1, l2 := g.L1DNode(0, 0), g.L2Node(0, 0)
	var s Serializer[bool]
	var want network.Message
	net.Attach(l2, &deferSink{s: &s, seen: &want})
	s.Start(7, true)
	net.SendNew(network.Message{Src: l1, Dst: l2, Block: 7, Kind: 3, Data: 42, Requestor: l1})
	eng.Run(0)
	net.SendNew(network.Message{Src: l2, Dst: l1, Block: 8, Kind: 5, Data: 13})
	s.End(7)
	got, ok := s.Pop(7)
	if !ok || got != want || want.Data != 42 {
		t.Errorf("popped %v, %v; want %v", got, ok, want)
	}
}
