package network

import (
	"slices"
	"strings"
	"testing"
	"unsafe"

	"tokencmp/internal/sim"
	"tokencmp/internal/topo"
)

// countSink counts deliveries without retaining the message.
type countSink struct{ n int }

func (s *countSink) Recv(*Message) { s.n++ }

func poolNet() (*sim.Engine, *Network, topo.Geometry) {
	eng := sim.NewEngine()
	g := topo.NewGeometry(2, 2, 1)
	n := New(eng, g, Default())
	for _, id := range g.AllNodes() {
		n.Attach(id, &countSink{})
	}
	return eng, n, g
}

// TestPoolRecyclesMessages asserts a delivered message returns to the
// pool and is handed out again by the next send.
func TestPoolRecyclesMessages(t *testing.T) {
	eng, n, g := poolNet()
	n.SendNew(Message{Src: g.L1DNode(0, 0), Dst: g.L1DNode(0, 1)})
	eng.Run(0)
	if len(n.pool) != 1 {
		t.Fatalf("pool has %d messages after delivery, want 1", len(n.pool))
	}
	recycled := n.pool[0]
	if m := n.alloc(); m != recycled {
		t.Error("alloc did not reuse the recycled message")
	}
}

// TestCopyOfFreeRoundTrip asserts a pooled copy is independent of the
// original and returns to the pool on free.
func TestCopyOfFreeRoundTrip(t *testing.T) {
	_, n, g := poolNet()
	orig := &Message{Src: g.L1DNode(0, 0), Dst: g.L1DNode(0, 1), Data: 42, Tokens: 3}
	cp := n.copyOf(orig)
	if cp == orig || cp.Data != 42 || cp.Tokens != 3 {
		t.Fatalf("CopyOf = %v (same pointer: %v)", cp, cp == orig)
	}
	n.free(cp)
	if len(n.pool) != 1 {
		t.Fatalf("pool has %d messages after free, want 1", len(n.pool))
	}
}

// TestDoubleFreePanics asserts the pool catches double frees.
func TestDoubleFreePanics(t *testing.T) {
	_, n, _ := poolNet()
	m := n.copyOf(&Message{})
	n.free(m)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	n.free(m)
}

// TestSendOfFreedPanics asserts a freed message cannot be sent.
func TestSendOfFreedPanics(t *testing.T) {
	_, n, g := poolNet()
	m := n.copyOf(&Message{Src: g.L1DNode(0, 0), Dst: g.L1DNode(0, 1)})
	n.free(m)
	defer func() {
		if recover() == nil {
			t.Error("send of freed message did not panic")
		}
	}()
	n.send(m, 0, false)
}

// TestSteadyStateSendDoesNotAllocate pins the pooled send→deliver path
// (control message, no token accounting) at zero allocations.
func TestSteadyStateSendDoesNotAllocate(t *testing.T) {
	eng, n, g := poolNet()
	src, dst := g.L1DNode(0, 0), g.L1DNode(0, 1)
	// Warm the pool and the event queue.
	for i := 0; i < 8; i++ {
		n.SendNew(Message{Src: src, Dst: dst})
	}
	eng.Run(0)
	avg := testing.AllocsPerRun(1000, func() {
		n.SendNew(Message{Src: src, Dst: dst})
		eng.Run(0)
	})
	if avg != 0 {
		t.Errorf("send→deliver allocates %.2f per message, want 0", avg)
	}
}

// TestBroadcastDrawsFromPool asserts broadcast copies are recycled and
// reused rather than freshly allocated each wave.
func TestBroadcastDrawsFromPool(t *testing.T) {
	eng, n, g := poolNet()
	tmpl := &Message{Src: g.L1DNode(0, 0), Block: 1}
	dsts := g.AllNodes()
	n.Broadcast(tmpl, dsts)
	eng.Run(0)
	want := g.NumNodes() - 1
	if len(n.pool) != want {
		t.Fatalf("pool has %d messages after broadcast, want %d", len(n.pool), want)
	}
	avg := testing.AllocsPerRun(100, func() {
		n.Broadcast(tmpl, dsts)
		eng.Run(0)
	})
	if avg != 0 {
		t.Errorf("broadcast wave allocates %.2f, want 0", avg)
	}
}

// TestMessageFitsOneCacheLine pins the Message layout at one 64-byte
// cache line: every pooled copy on the send path moves exactly one line.
func TestMessageFitsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(Message{}); got != 64 {
		t.Errorf("unsafe.Sizeof(Message{}) = %d, want 64", got)
	}
}

// handleSink defers every delivery through HandleAfter and records each
// Handle call. If redefer is set, the first Handle of a message passes
// it back to HandleAt redefer later.
type handleSink struct {
	n       *Network
	delay   sim.Time
	redefer sim.Time
	recv    []*Message
	at      []sim.Time
	got     []*Message
	vals    []Message
}

func (s *handleSink) Recv(m *Message) {
	s.recv = append(s.recv, m)
	s.n.HandleAfter(s.delay, m)
}

func (s *handleSink) Handle(m *Message) {
	s.at = append(s.at, s.n.Eng.Now())
	s.got = append(s.got, m)
	s.vals = append(s.vals, *m)
	if s.redefer > 0 && len(s.at) == 1 {
		s.n.HandleAt(s.n.Eng.Now()+s.redefer, m)
	}
}

// TestHandleAfterFreesOnce asserts HandleAfter in Recv takes over the
// delivery itself: Handle runs d later on the delivered pointer, no
// pooled copy exists while the handling is pending, and the message
// returns to the pool exactly once.
func TestHandleAfterFreesOnce(t *testing.T) {
	eng, n, g := poolNet()
	src, dst := g.L1DNode(0, 0), g.L1DNode(0, 1)
	h := &handleSink{n: n, delay: sim.NS(5)}
	n.Attach(dst, h)
	n.SendNew(Message{Src: src, Dst: dst, Data: 9})
	if !eng.Step() {
		t.Fatal("no delivery event")
	}
	arrived := eng.Now()
	if len(n.pool) != 0 {
		t.Fatalf("pool has %d messages while the handling is pending, want 0", len(n.pool))
	}
	eng.Run(0)
	if len(h.at) != 1 || h.at[0] != arrived+sim.NS(5) {
		t.Fatalf("Handle ran at %v, want once at %v", h.at, arrived+sim.NS(5))
	}
	if h.got[0] != h.recv[0] || h.vals[0].Data != 9 {
		t.Fatalf("Handle saw %p (%v), want the delivered message %p", h.got[0], h.vals[0], h.recv[0])
	}
	if len(n.pool) != 1 || n.pool[0] != h.got[0] || !h.got[0].pooled {
		t.Fatalf("pool = %v after Handle, want exactly the handled message", n.pool)
	}
}

// TestHeldMessageIsNotReclaimed asserts deliver reclaims a message when
// Recv returns without deferring it, but leaves one that Recv passed to
// HandleAfter alone until its Handle returns.
func TestHeldMessageIsNotReclaimed(t *testing.T) {
	eng, n, g := poolNet()
	src, dst := g.L1DNode(0, 0), g.L1DNode(0, 1)
	n.SendNew(Message{Src: src, Dst: dst})
	eng.Run(0)
	if len(n.pool) != 1 {
		t.Fatalf("pool has %d messages after an undeferred delivery, want 1", len(n.pool))
	}

	h := &handleSink{n: n, delay: sim.NS(1)}
	n.Attach(dst, h)
	n.SendNew(Message{Src: src, Dst: dst, Data: 7})
	if !eng.Step() {
		t.Fatal("no delivery event")
	}
	if len(h.recv) != 1 || h.recv[0].pooled || h.recv[0].Data != 7 {
		t.Fatalf("deferred message = %v, want the delivered message, not reclaimed", h.recv)
	}
	if len(n.pool) != 0 {
		t.Fatalf("pool has %d messages while the delivery is deferred, want 0", len(n.pool))
	}
	eng.Run(0)
	if len(n.pool) != 1 || n.pool[0] != h.recv[0] {
		t.Fatalf("pool = %v after Handle, want [%p]", n.pool, h.recv[0])
	}
}

// TestHandleAtRedeferFreesOnce asserts a Handle that passes its message
// back to HandleAt is handled again at that time on the same pointer,
// and the message is freed only after the second Handle.
func TestHandleAtRedeferFreesOnce(t *testing.T) {
	eng, n, g := poolNet()
	src, dst := g.L1DNode(0, 0), g.L1DNode(0, 1)
	h := &handleSink{n: n, delay: sim.NS(3), redefer: sim.NS(7)}
	n.Attach(dst, h)
	n.SendNew(Message{Src: src, Dst: dst})
	eng.Step() // delivery
	arrived := eng.Now()
	eng.Step() // first Handle
	m := h.recv[0]
	if len(n.pool) != 0 || m.pooled {
		t.Fatalf("message freed after a Handle that re-deferred it (pool %v)", n.pool)
	}
	eng.Run(0)
	if want := []sim.Time{arrived + sim.NS(3), arrived + sim.NS(10)}; !slices.Equal(h.at, want) {
		t.Fatalf("Handle ran at %v, want at %v", h.at, want)
	}
	if h.got[0] != m || h.got[1] != m {
		t.Fatal("Handle saw a different message on re-deferral")
	}
	if len(n.pool) != 1 || n.pool[0] != m {
		t.Fatalf("pool = %v after the second Handle, want [%p]", n.pool, m)
	}
}

// TestHandleAfterOfNonLiveDefersCopy asserts HandleAfter of a message
// that is not being delivered or handled defers a pooled copy: Handle
// sees a different pointer with equal fields, the caller's value is
// untouched, and the copy returns to the pool.
func TestHandleAfterOfNonLiveDefersCopy(t *testing.T) {
	eng, n, g := poolNet()
	h := &handleSink{n: n}
	dst := g.L1DNode(0, 1)
	n.Attach(dst, h)
	q := Message{Src: g.L1DNode(0, 0), Dst: dst, Block: 4, Data: 11, Tokens: 2}
	want := q
	n.HandleAfter(sim.NS(1), &q)
	eng.Run(0)
	if len(h.got) != 1 || h.got[0] == &q || h.vals[0] != want {
		t.Fatalf("Handle saw %v (same pointer: %v), want a copy of %v", h.vals, len(h.got) == 1 && h.got[0] == &q, want)
	}
	if q != want {
		t.Errorf("caller's value changed to %v, want %v", q, want)
	}
	if len(n.pool) != 1 || n.pool[0] != h.got[0] {
		t.Errorf("pool = %v after Handle, want exactly the deferred copy", n.pool)
	}
}

// TestHandleAtOfFreedPanics asserts a message sitting in the pool cannot
// be deferred.
func TestHandleAtOfFreedPanics(t *testing.T) {
	eng, n, g := poolNet()
	n.SendNew(Message{Src: g.L1DNode(0, 0), Dst: g.L1DNode(0, 1)})
	eng.Run(0)
	defer func() {
		if recover() == nil {
			t.Error("HandleAt of a freed message did not panic")
		}
	}()
	n.HandleAt(sim.NS(1), n.pool[0])
}

// TestHandleAfterWithoutHandlerPanics asserts a deferral to an endpoint
// that does not implement Handler fails with a named message rather
// than a nil dereference.
func TestHandleAfterWithoutHandlerPanics(t *testing.T) {
	eng, n, g := poolNet()
	n.HandleAfter(sim.NS(1), &Message{Dst: g.L1DNode(0, 1)}) // a countSink: Recv only
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "no Handler attached") {
			t.Errorf("panic = %v, want the no-Handler message", r)
		}
	}()
	eng.Run(0)
}

// TestSteadyStateHandleAfterDoesNotAllocate pins the Recv → HandleAfter
// → Handle → free path at zero allocations.
func TestSteadyStateHandleAfterDoesNotAllocate(t *testing.T) {
	eng, n, g := poolNet()
	src, dst := g.L1DNode(0, 0), g.L1DNode(0, 1)
	h := &handleSink{n: n, delay: sim.NS(2)}
	n.Attach(dst, h)
	for i := 0; i < 8; i++ {
		n.SendNew(Message{Src: src, Dst: dst})
	}
	eng.Run(0)
	h.at, h.got = make([]sim.Time, 0, 4096), make([]*Message, 0, 4096)
	avg := testing.AllocsPerRun(1000, func() {
		n.SendNew(Message{Src: src, Dst: dst})
		eng.Run(0)
	})
	if avg != 0 {
		t.Errorf("send→HandleAfter→free allocates %.2f per message, want 0", avg)
	}
}

// drainSink models a controller's drain: each Handle of a message with
// Aux > 0 re-admits a stack copy of it, one step down, through
// HandleAfter(0, &q), the way the home and memory controllers re-admit
// a request popped from their serializer.
type drainSink struct{ n *Network }

func (s drainSink) Recv(m *Message) { s.n.HandleAfter(0, m) }

func (s drainSink) Handle(m *Message) {
	if m.Aux > 0 {
		q := *m
		q.Aux--
		s.n.HandleAfter(0, &q)
	}
}

// TestSteadyStateDrainDoesNotAllocate pins HandleAfter(0, &q) of a
// stack value from inside Handle at zero allocations: HandleAt's
// pointer parameter must not escape, or every drain would move q to the
// heap.
func TestSteadyStateDrainDoesNotAllocate(t *testing.T) {
	eng, n, g := poolNet()
	src, dst := g.L1DNode(0, 0), g.L1DNode(0, 1)
	n.Attach(dst, drainSink{n})
	for i := 0; i < 8; i++ {
		n.SendNew(Message{Src: src, Dst: dst, Aux: 4})
	}
	eng.Run(0)
	avg := testing.AllocsPerRun(1000, func() {
		n.SendNew(Message{Src: src, Dst: dst, Aux: 4})
		eng.Run(0)
	})
	if avg != 0 {
		t.Errorf("send→Handle→4 drains allocates %.2f per message, want 0", avg)
	}
}
