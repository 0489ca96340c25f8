package network

import (
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
// freelist and is handed out again by the next send.
func TestPoolRecyclesMessages(t *testing.T) {
	eng, n, g := poolNet()
	n.SendNew(Message{Src: g.L1DNode(0, 0), Dst: g.L1DNode(0, 1)})
	eng.Run(0)
	if len(n.free) != 1 {
		t.Fatalf("freelist has %d messages after delivery, want 1", len(n.free))
	}
	recycled := n.free[0]
	if m := n.NewMessage(); m != recycled {
		t.Error("NewMessage did not reuse the recycled message")
	} else if *m != (Message{}) {
		t.Errorf("recycled message not zeroed: %v", m)
	}
}

// TestCopyOfFreeRoundTrip asserts the handler escape hatch: a pooled
// copy is independent of the original and returns to the pool on Free.
func TestCopyOfFreeRoundTrip(t *testing.T) {
	_, n, g := poolNet()
	orig := &Message{Src: g.L1DNode(0, 0), Dst: g.L1DNode(0, 1), Data: 42, Tokens: 3}
	cp := n.CopyOf(orig)
	if cp == orig || cp.Data != 42 || cp.Tokens != 3 {
		t.Fatalf("CopyOf = %v (same pointer: %v)", cp, cp == orig)
	}
	n.Free(cp)
	if len(n.free) != 1 {
		t.Fatalf("freelist has %d messages after Free, want 1", len(n.free))
	}
}

// TestDoubleFreePanics asserts the pool catches double frees.
func TestDoubleFreePanics(t *testing.T) {
	_, n, _ := poolNet()
	m := n.CopyOf(&Message{})
	n.Free(m)
	defer func() {
		if recover() == nil {
			t.Error("double Free did not panic")
		}
	}()
	n.Free(m)
}

// TestSendOfFreedPanics asserts a freed message cannot be sent.
func TestSendOfFreedPanics(t *testing.T) {
	_, n, g := poolNet()
	m := n.CopyOf(&Message{Src: g.L1DNode(0, 0), Dst: g.L1DNode(0, 1)})
	n.Free(m)
	defer func() {
		if recover() == nil {
			t.Error("Send of freed message did not panic")
		}
	}()
	n.Send(m)
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
	if len(n.free) != want {
		t.Fatalf("freelist has %d messages after broadcast, want %d", len(n.free), want)
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

// holdSink takes over every delivered message with Hold and frees it
// one cycle later from a scheduled thunk, the protocol handlers' idiom.
type holdSink struct {
	n    *Network
	held *Message
}

func holdSinkFree(ctx, arg any) { ctx.(*holdSink).n.Free(arg.(*Message)) }

func (s *holdSink) Recv(m *Message) {
	s.held = s.n.Hold(m)
	s.n.Eng.ScheduleCall(sim.NS(1), holdSinkFree, s, s.held)
}

// TestHeldMessageIsNotReclaimed asserts deliver reclaims an unheld
// message when Recv returns, but leaves a held one alone until its
// holder frees it.
func TestHeldMessageIsNotReclaimed(t *testing.T) {
	eng, n, g := poolNet()
	src, dst := g.L1DNode(0, 0), g.L1DNode(0, 1)
	n.SendNew(Message{Src: src, Dst: dst})
	eng.Run(0)
	if len(n.free) != 1 {
		t.Fatalf("freelist has %d messages after an unheld delivery, want 1", len(n.free))
	}

	h := &holdSink{n: n}
	n.Attach(dst, h)
	n.SendNew(Message{Src: src, Dst: dst, Data: 7})
	if !eng.Step() {
		t.Fatal("no delivery event")
	}
	if h.held == nil || h.held.pooled || h.held.Data != 7 {
		t.Fatalf("held message = %v, want the delivered message, not reclaimed", h.held)
	}
	if len(n.free) != 0 {
		t.Fatalf("freelist has %d messages while the delivery is held, want 0", len(n.free))
	}
	eng.Run(0)
	if len(n.free) != 1 || n.free[0] != h.held {
		t.Fatalf("freelist = %v after the holder freed the message, want [%p]", n.free, h.held)
	}
}

// TestSteadyStateHoldDoesNotAllocate pins the Hold → ScheduleCall → Free
// handler path at zero allocations.
func TestSteadyStateHoldDoesNotAllocate(t *testing.T) {
	eng, n, g := poolNet()
	src, dst := g.L1DNode(0, 0), g.L1DNode(0, 1)
	n.Attach(dst, &holdSink{n: n})
	for i := 0; i < 8; i++ {
		n.SendNew(Message{Src: src, Dst: dst})
	}
	eng.Run(0)
	avg := testing.AllocsPerRun(1000, func() {
		n.SendNew(Message{Src: src, Dst: dst})
		eng.Run(0)
	})
	if avg != 0 {
		t.Errorf("send→hold→free allocates %.2f per message, want 0", avg)
	}
}

// doubleHolder holds each delivery twice.
type doubleHolder struct{ n *Network }

func (s doubleHolder) Recv(m *Message) { s.n.Free(s.n.Hold(s.n.Hold(m))) }

// TestHoldOfUndeliveredPanics asserts Hold accepts only the message
// whose Recv is running: not one outside delivery, not a copy, and not
// one already held.
func TestHoldOfUndeliveredPanics(t *testing.T) {
	eng, n, g := poolNet()
	src, dst := g.L1DNode(0, 0), g.L1DNode(0, 1)
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("Hold outside Recv", func() { n.Hold(n.NewMessage()) })
	mustPanic("Hold of nil", func() { n.Hold(nil) })

	n.Attach(dst, copyHolder{n})
	n.SendNew(Message{Src: src, Dst: dst})
	mustPanic("Hold of a copy of the delivered message", func() { eng.Run(0) })

	eng, n, _ = poolNet()
	n.Attach(dst, doubleHolder{n})
	n.SendNew(Message{Src: src, Dst: dst})
	mustPanic("second Hold of the delivered message", func() { eng.Run(0) })
}

// copyHolder holds a copy instead of the delivered message.
type copyHolder struct{ n *Network }

func (s copyHolder) Recv(m *Message) { s.n.Hold(s.n.CopyOf(m)) }

// handleSink defers every delivery through HandleAfter and records each
// Handle call. If redefer is set, the first Handle of a message passes
// it back to HandleAt redefer later.
type handleSink struct {
	n       *Network
	delay   sim.Time
	redefer sim.Time
	at      []sim.Time
	got     []*Message
}

func (s *handleSink) Recv(m *Message) { s.n.HandleAfter(s.delay, s.n.Hold(m)) }

func (s *handleSink) Handle(m *Message) {
	s.at = append(s.at, s.n.Eng.Now())
	s.got = append(s.got, m)
	if s.redefer > 0 && len(s.at) == 1 {
		s.n.HandleAt(s.n.Eng.Now()+s.redefer, m)
	}
}

// TestHandleAfterFreesOnce asserts a held delivery deferred with
// HandleAfter reaches Handle d later and then returns to the pool
// exactly once.
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
	if len(n.free) != 0 {
		t.Fatalf("freelist has %d messages while the handling is pending, want 0", len(n.free))
	}
	eng.Run(0)
	if len(h.at) != 1 || h.at[0] != arrived+sim.NS(5) {
		t.Fatalf("Handle ran at %v, want once at %v", h.at, arrived+sim.NS(5))
	}
	if len(n.free) != 1 || n.free[0] != h.got[0] || !h.got[0].pooled {
		t.Fatalf("freelist = %v after Handle, want exactly the handled message", n.free)
	}
}

// TestHandleAtRedeferFreesOnce asserts a Handle that passes its message
// back to HandleAt is handled again at that time, and the message is
// freed only after the second Handle.
func TestHandleAtRedeferFreesOnce(t *testing.T) {
	eng, n, g := poolNet()
	dst := g.L1DNode(0, 1)
	h := &handleSink{n: n, redefer: sim.NS(7)}
	n.Attach(dst, h)
	m := n.NewMessage()
	m.Dst = dst
	n.HandleAfter(sim.NS(3), m)
	if !eng.Step() {
		t.Fatal("no handling event")
	}
	if len(n.free) != 0 || m.pooled {
		t.Fatalf("message freed after a Handle that re-deferred it (freelist %v)", n.free)
	}
	eng.Run(0)
	if len(h.at) != 2 || h.at[0] != sim.NS(3) || h.at[1] != sim.NS(10) {
		t.Fatalf("Handle ran at %v, want at [%v %v]", h.at, sim.NS(3), sim.NS(10))
	}
	if h.got[0] != m || h.got[1] != m {
		t.Fatal("Handle saw a different message on re-deferral")
	}
	if len(n.free) != 1 || n.free[0] != m {
		t.Fatalf("freelist = %v after the second Handle, want [%p]", n.free, m)
	}
}

// TestHandleAfterWithoutHandlerPanics asserts a deferral to an endpoint
// that does not implement Handler fails with a named message rather
// than a nil dereference.
func TestHandleAfterWithoutHandlerPanics(t *testing.T) {
	eng, n, g := poolNet()
	m := n.NewMessage()
	m.Dst = g.L1DNode(0, 1) // a countSink: Recv only
	n.HandleAfter(sim.NS(1), m)
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "no Handler attached") {
			t.Errorf("panic = %v, want the no-Handler message", r)
		}
	}()
	eng.Run(0)
}

// TestSteadyStateHandleAfterDoesNotAllocate pins the Hold → HandleAfter
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
		t.Errorf("send→hold→HandleAfter→free allocates %.2f per message, want 0", avg)
	}
}
