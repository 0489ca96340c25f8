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

// TestMessageFitsOneCacheLine pins the Message layout at its exact
// size, 56 bytes, within one 64-byte cache line: every pooled copy on
// the send path moves less than one line.
func TestMessageFitsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(Message{}); got != 56 {
		t.Errorf("unsafe.Sizeof(Message{}) = %d, want 56", got)
	}
}

// handleSink records each Recv: when it ran, the pointer and a copy of
// the message. If redefer is set, Recv passes each message back to
// HandleAfter once, redefer later, marking it with Aux 1.
type handleSink struct {
	n       *Network
	redefer sim.Time
	at      []sim.Time
	got     []*Message
	vals    []Message
}

func (s *handleSink) Recv(m *Message) {
	s.at = append(s.at, s.n.Eng.Now())
	s.got = append(s.got, m)
	s.vals = append(s.vals, *m)
	if s.redefer > 0 && m.Aux == 0 {
		m.Aux = 1
		s.n.HandleAfter(s.redefer, m)
	}
}

// reserve pre-sizes the sink's records for an allocation count.
func (s *handleSink) reserve() {
	s.at, s.got, s.vals = make([]sim.Time, 0, 4096), make([]*Message, 0, 4096), make([]Message, 0, 4096)
}

// delivered records the pointer of each message the network delivers.
func delivered(n *Network) *[]*Message {
	var got []*Message
	n.Monitor = func(m *Message) { got = append(got, m) }
	return &got
}

// TestHandleAfterFreesOnce asserts HandleAfter in Recv takes over the
// delivery itself: Recv runs again d later on the delivered pointer, no
// pooled copy exists while the handling is pending, and the message
// returns to the pool exactly once.
func TestHandleAfterFreesOnce(t *testing.T) {
	eng, n, g := poolNet()
	src, dst := g.L1DNode(0, 0), g.L1DNode(0, 1)
	h := &handleSink{n: n, redefer: sim.NS(5)}
	n.Attach(dst, h)
	sent := delivered(n)
	n.SendNew(Message{Src: src, Dst: dst, Data: 9})
	if !eng.Step() {
		t.Fatal("no delivery event")
	}
	arrived := eng.Now()
	if len(n.pool) != 0 {
		t.Fatalf("pool has %d messages while the handling is pending, want 0", len(n.pool))
	}
	eng.Run(0)
	if want := []sim.Time{arrived, arrived + sim.NS(5)}; !slices.Equal(h.at, want) {
		t.Fatalf("Recv ran at %v, want at %v", h.at, want)
	}
	m := (*sent)[0]
	if h.got[0] != m || h.got[1] != m || h.vals[1].Data != 9 {
		t.Fatalf("Recv saw %p, %p (%v), want the delivered message %p", h.got[0], h.got[1], h.vals[1], m)
	}
	if len(n.pool) != 1 || n.pool[0] != m || !m.pooled {
		t.Fatalf("pool = %v after Recv, want exactly the handled message", n.pool)
	}
}

// TestHeldMessageIsNotReclaimed asserts deliver reclaims a message when
// Recv returns without deferring it, but leaves one that waits out its
// endpoint's access latency alone until its Recv returns.
func TestHeldMessageIsNotReclaimed(t *testing.T) {
	eng, n, g := poolNet()
	src, dst := g.L1DNode(0, 0), g.L1DNode(0, 1)
	n.SendNew(Message{Src: src, Dst: dst})
	eng.Run(0)
	if len(n.pool) != 1 {
		t.Fatalf("pool has %d messages after an undeferred delivery, want 1", len(n.pool))
	}

	h := &handleSink{n: n}
	n.AttachDelay(dst, h, sim.NS(1))
	sent := delivered(n)
	n.SendNew(Message{Src: src, Dst: dst, Data: 7})
	if !eng.Step() {
		t.Fatal("no delivery event")
	}
	m := (*sent)[0]
	if len(h.at) != 0 || m.pooled || m.Data != 7 {
		t.Fatalf("deferred message = %v (Recv ran %d times), want the delivered message, not reclaimed", m, len(h.at))
	}
	if len(n.pool) != 0 {
		t.Fatalf("pool has %d messages while the delivery is deferred, want 0", len(n.pool))
	}
	eng.Run(0)
	if len(n.pool) != 1 || n.pool[0] != m {
		t.Fatalf("pool = %v after Recv, want [%p]", n.pool, m)
	}
}

// TestHandleAtRedeferFreesOnce asserts a deferred Recv that passes its
// message back to HandleAt is handled again at that time on the same
// pointer, and the message is freed only after the second Recv.
func TestHandleAtRedeferFreesOnce(t *testing.T) {
	eng, n, g := poolNet()
	src, dst := g.L1DNode(0, 0), g.L1DNode(0, 1)
	h := &handleSink{n: n, redefer: sim.NS(7)}
	n.AttachDelay(dst, h, sim.NS(3))
	sent := delivered(n)
	n.SendNew(Message{Src: src, Dst: dst})
	eng.Step() // delivery
	arrived := eng.Now()
	eng.Step() // first Recv
	m := (*sent)[0]
	if len(n.pool) != 0 || m.pooled {
		t.Fatalf("message freed after a Recv that re-deferred it (pool %v)", n.pool)
	}
	eng.Run(0)
	if want := []sim.Time{arrived + sim.NS(3), arrived + sim.NS(10)}; !slices.Equal(h.at, want) {
		t.Fatalf("Recv ran at %v, want at %v", h.at, want)
	}
	if h.got[0] != m || h.got[1] != m {
		t.Fatal("Recv saw a different message on re-deferral")
	}
	if len(n.pool) != 1 || n.pool[0] != m {
		t.Fatalf("pool = %v after the second Recv, want [%p]", n.pool, m)
	}
}

// TestHandleAfterOfNonLiveDefersCopy asserts HandleAfter of a message
// that is not being delivered or handled defers a pooled copy: Recv
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
		t.Fatalf("Recv saw %v (same pointer: %v), want a copy of %v", h.vals, len(h.got) == 1 && h.got[0] == &q, want)
	}
	if q != want {
		t.Errorf("caller's value changed to %v, want %v", q, want)
	}
	if len(n.pool) != 1 || n.pool[0] != h.got[0] {
		t.Errorf("pool = %v after Recv, want exactly the deferred copy", n.pool)
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

// TestHandleAfterWithoutHandlerPanics asserts a deferral to a node with
// no endpoint attached fails with a named message rather than a nil
// dereference.
func TestHandleAfterWithoutHandlerPanics(t *testing.T) {
	eng := sim.NewEngine()
	g := topo.NewGeometry(2, 2, 1)
	n := New(eng, g, Default())
	n.HandleAfter(sim.NS(1), &Message{Dst: g.L1DNode(0, 1)})
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "no endpoint attached") {
			t.Errorf("panic = %v, want the no-endpoint message", r)
		}
	}()
	eng.Run(0)
}

// TestSteadyStateHandleAfterDoesNotAllocate pins the deferred delivery
// → Recv → HandleAfter → Recv → free path at zero allocations.
func TestSteadyStateHandleAfterDoesNotAllocate(t *testing.T) {
	eng, n, g := poolNet()
	src, dst := g.L1DNode(0, 0), g.L1DNode(0, 1)
	h := &handleSink{n: n, redefer: sim.NS(3)}
	n.AttachDelay(dst, h, sim.NS(2))
	for i := 0; i < 8; i++ {
		n.SendNew(Message{Src: src, Dst: dst})
	}
	eng.Run(0)
	h.reserve()
	avg := testing.AllocsPerRun(1000, func() {
		n.SendNew(Message{Src: src, Dst: dst})
		eng.Run(0)
	})
	if avg != 0 {
		t.Errorf("send→delay→HandleAfter→free allocates %.2f per message, want 0", avg)
	}
	if len(h.at) != 2*1001 {
		t.Errorf("Recv ran %d times, want twice per message (%d)", len(h.at), 2*1001)
	}
}

// TestPromptKinds asserts Kind.Prompt: at an endpoint with an access
// latency, a kind whose row lists the endpoint's controller class (an
// L1D or L1I is an L1) reaches Recv inside its delivery event; a kind
// whose row lists only other classes, a kind the table does not list
// and kinds 32 and 64 reach Recv one latency after arrival on the
// delivered pointer and are freed once; and the two-argument Attach
// delivers every kind at once. No case allocates.
func TestPromptKinds(t *testing.T) {
	const lat = 4 * sim.Nanosecond
	kinds := make(Kinds, 65)
	kinds[1] = Kind{Prompt: AtL1}
	kinds[2] = Kind{Prompt: AtL2 | AtMem}
	kinds[3] = Kind{Prompt: AtAll}
	kinds[64] = Kind{Prompt: AtL2}
	for _, tc := range []struct {
		name     string
		at       topo.Kind
		latency  sim.Time
		kind     int32
		deferred bool
	}{
		{"prompt at L1", topo.L1D, lat, 1, false},
		{"prompt at L1 to an L1I", topo.L1I, lat, 1, false},
		{"prompt at L1 to memory", topo.Mem, lat, 1, true},
		{"prompt everywhere", topo.L1D, lat, 3, false},
		{"prompt at L2 and memory only", topo.L1D, lat, 2, true},
		{"prompt at L2 to an L2", topo.L2, lat, 2, false},
		{"prompt at memory to memory", topo.Mem, lat, 2, false},
		{"no Prompt", topo.L1D, lat, 0, true},
		{"kind 32", topo.L1D, lat, 32, true},
		{"kind 64 prompt at L2 only", topo.L1D, lat, 64, true},
		{"kind 65 unlisted", topo.L1D, lat, 65, true},
		{"Attach kind 0", topo.L1D, 0, 0, false},
		{"Attach kind 2", topo.L1D, 0, 2, false},
		{"Attach kind 65", topo.L1D, 0, 65, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, n, g := poolNet()
			n.Kinds = kinds
			src := g.L1DNode(0, 0)
			dst := map[topo.Kind]topo.NodeID{
				topo.L1D: g.L1DNode(0, 1), topo.L1I: g.L1INode(0, 1), topo.L2: g.L2Node(0, 0), topo.Mem: g.MemNode(0),
			}[tc.at]
			h := &handleSink{n: n}
			if tc.latency == 0 {
				n.Attach(dst, h) // the two-argument path
			} else {
				n.AttachDelay(dst, h, tc.latency)
			}
			sent := delivered(n)
			n.SendNew(Message{Src: src, Dst: dst, Kind: tc.kind, Data: 5})
			if !eng.Step() {
				t.Fatal("no delivery event")
			}
			arrived, m := eng.Now(), (*sent)[0]
			want := arrived
			if tc.deferred {
				want += lat
				if len(h.at) != 0 || m.pooled || len(n.pool) != 0 {
					t.Fatalf("deferred kind reached Recv %d times or was freed at delivery", len(h.at))
				}
				eng.Run(0)
			}
			if len(h.at) != 1 || h.at[0] != want || h.got[0] != m || h.vals[0].Kind != tc.kind || h.vals[0].Data != 5 {
				t.Fatalf("Recv ran at %v on %p (%v), want once at %v on the delivered %p", h.at, h.got, h.vals, want, m)
			}
			if eng.Pending() != 0 {
				t.Errorf("%d events pending after Recv", eng.Pending())
			}
			if len(n.pool) != 1 || n.pool[0] != m || !m.pooled {
				t.Errorf("pool = %v after Recv, want exactly the delivered message", n.pool)
			}

			n.Monitor = nil
			h.reserve()
			avg := testing.AllocsPerRun(1000, func() {
				n.SendNew(Message{Src: src, Dst: dst, Kind: tc.kind})
				eng.Run(0)
			})
			if avg != 0 {
				t.Errorf("send→deliver→Recv allocates %.2f per message, want 0", avg)
			}
		})
	}
}

// drainSink models a controller's drain: each Recv of a message with
// Aux > 0 re-admits a stack copy of it, one step down, through
// HandleAfter(0, &q), the way the home and memory controllers re-admit
// a request popped from their serializer.
type drainSink struct{ n *Network }

func (s drainSink) Recv(m *Message) {
	if m.Aux > 0 {
		q := *m
		q.Aux--
		s.n.HandleAfter(0, &q)
	}
}

// TestSteadyStateDrainDoesNotAllocate pins HandleAfter(0, &q) of a
// stack value from inside Recv at zero allocations: HandleAt's pointer
// parameter must not escape, or every drain would move q to the heap.
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
		t.Errorf("send→Recv→4 drains allocates %.2f per message, want 0", avg)
	}
}
