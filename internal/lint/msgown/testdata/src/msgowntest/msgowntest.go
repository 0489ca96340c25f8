// Package msgowntest is the msgown analysistest corpus: every `want`
// comment marks a true positive the analyzer must report, and every
// handler without one is a legal idiom it must stay silent on. The
// package imports the real network and sim types, so the analyzer is
// exercised against exactly the signatures it matches in production.
// It compiles but is never linked into anything (testdata directories
// are invisible to build wildcards).
package msgowntest

import (
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
	"tokencmp/internal/topo"
)

// Retainer violates the ownership contract in every way msgown checks.
type Retainer struct {
	net   *network.Network
	eng   *sim.Engine
	last  *network.Message
	held  map[mem.Block]*network.Message
	queue []*network.Message
	ch    chan *network.Message
	fn    func()
}

func (r *Retainer) use(m *network.Message) bool { return m != nil }

func (r *Retainer) Recv(m *network.Message) {
	r.net.Free(m) // want `Free frees a network-owned message delivered to Recv`
	r.net.Send(m) // want `use of message m after Free on line \d+`
	_ = m.Tokens  // want `use of message m after Free on line \d+`
	m = r.net.CopyOf(&network.Message{})
	r.net.Send(m) // reassignment revived m: clean
}

type SendRetainer struct{ Retainer }

func (r *SendRetainer) Recv(m *network.Message) {
	r.net.Send(m) // want `Send sends a network-owned message delivered to Recv`
}

type AfterRetainer struct{ Retainer }

func (r *AfterRetainer) Recv(m *network.Message) {
	r.net.SendAfter(sim.NS(1), m) // want `SendAfter sends a network-owned message delivered to Recv`
}

type HandleRetainer struct{ Retainer }

func (r *HandleRetainer) Recv(m *network.Message) {
	r.net.HandleAfter(sim.NS(1), m) // want `HandleAfter defers a network-owned message delivered to Recv`
}

type HandleAtRetainer struct{ Retainer }

func (r *HandleAtRetainer) Recv(m *network.Message) {
	r.net.HandleAt(sim.NS(1), m) // want `HandleAt defers a network-owned message delivered to Recv`
}

type StoreRetainer struct{ Retainer }

func (r *StoreRetainer) Recv(m *network.Message) {
	r.last = m                          // want `network-owned message m stored in a field`
	r.held[m.Block] = m                 // want `network-owned message m stored in a slice or map`
	r.queue = append(r.queue, m)        // want `network-owned message m appended to a slice`
	r.ch <- m                           // want `network-owned message m sent on a channel`
	pair := [2]*network.Message{m, nil} // want `network-owned message m stored in a composite literal`
	_ = pair
}

type ClosureRetainer struct{ Retainer }

func (r *ClosureRetainer) Recv(m *network.Message) {
	r.eng.Schedule(sim.NS(1), func() { // want `closure scheduled with Schedule captures network-owned message m`
		r.use(m)
	})
	r.eng.ScheduleCall(sim.NS(1), retainThunk, r, m) // want `network-owned message m passed to ScheduleCall`
	r.fn = func() { r.use(m) }                       // want `closure stored in a variable captures network-owned message m`
	go func() { r.use(m) }()                         // want `closure started as a goroutine captures network-owned message m`
}

func retainThunk(ctx, arg any) {
	r, m := ctx.(*ClosureRetainer), arg.(*network.Message)
	r.use(m)
}

// UseAfterTransfer exercises the owned-message lifecycle violations.
type UseAfterTransfer struct{ Retainer }

func (r *UseAfterTransfer) Recv(m *network.Message) {
	cp := r.net.CopyOf(m)
	r.net.Send(cp)
	_ = cp.Tokens // want `use of message cp after Send on line \d+`

	fresh := r.net.NewMessage()
	r.net.Free(fresh)
	r.net.Free(fresh) // want `use of message fresh after Free on line \d+`

	late := r.net.CopyOf(m)
	r.net.SendAfter(sim.NS(2), late)
	r.use(late) // want `use of message late after SendAfter on line \d+`

	held := r.net.CopyOf(m)
	r.net.Send(held)
	r.eng.Schedule(sim.NS(1), func() { // want `closure captures message held after Send on line \d+`
		r.use(held)
	})

	deferred := r.net.CopyOf(m)
	r.net.HandleAt(sim.NS(3), deferred)
	_ = deferred.Aux // want `use of message deferred after HandleAt on line \d+`
}

// ConditionalTransfer: a transfer on one falling-through branch kills
// the message at the join.
type ConditionalTransfer struct{ Retainer }

func (r *ConditionalTransfer) Recv(m *network.Message) {
	cp := r.net.CopyOf(m)
	if m.Tokens > 0 {
		r.net.Send(cp)
	}
	_ = cp.Owner // want `use of message cp after Send on line \d+`
}

// HoldMisuse breaks the Hold rules: a held message is owned, so it is
// dead after Send like any other, and Hold accepts only the delivery.
type HoldMisuse struct{ Retainer }

func (r *HoldMisuse) Recv(m *network.Message) {
	h := r.net.Hold(m)
	r.net.Send(h)
	_ = h.Kind // want `use of message h after Send on line \d+`

	cp := r.net.CopyOf(m)
	r.net.Hold(cp) // want `Hold of a message other than the borrowed delivery`
	r.net.Free(cp)
}

type HoldSendMisuse struct{ Retainer }

func (r *HoldSendMisuse) Recv(m *network.Message) {
	r.net.Send(r.net.Hold(m))
	_ = m.Block   // want `use of message m after Send on line \d+`
	r.net.Hold(m) // want `use of message m after Send on line \d+`
}

type HoldHandleMisuse struct{ Retainer }

func (r *HoldHandleMisuse) Recv(m *network.Message) {
	r.net.HandleAfter(sim.NS(1), r.net.Hold(m))
	_ = m.Kind // want `use of message m after HandleAfter on line \d+`
}

type HoldTwice struct{ Retainer }

func (r *HoldTwice) Recv(m *network.Message) {
	h := r.net.Hold(m)
	r.net.Hold(m) // want `Hold of a message other than the borrowed delivery`
	r.net.Free(h)
}

// holdLater calls Hold outside Recv, where no delivery is running.
func (r *HoldMisuse) holdLater(m *network.Message) {
	r.eng.ScheduleCall(sim.NS(1), retainThunk, r, r.net.Hold(m)) // want `Hold outside Recv`
}

// --- Legal idioms below: the analyzer must stay silent. ---

// HandleHandler is the production Recv idiom: hold the delivered
// message across the access delay with HandleAfter; the network calls
// Handle and frees the message afterwards.
type HandleHandler struct {
	Retainer
	queued network.Message
}

func (c *HandleHandler) Recv(m *network.Message) {
	c.net.HandleAfter(sim.NS(1), c.net.Hold(m))
}

// Handle re-defers the message it is handling (the response-delay
// idiom) and re-admits a queued request through a pooled copy.
func (c *HandleHandler) Handle(m *network.Message) {
	if m.Aux != 0 {
		c.net.HandleAt(sim.NS(10), m)
		return
	}
	c.net.HandleAfter(0, c.net.CopyOf(&c.queued))
}

// CleanHandler is the thunk form of the deferral idiom: defer a pooled
// copy, free it in the thunk.
type CleanHandler struct{ Retainer }

func cleanThunk(ctx, arg any) {
	c, m := ctx.(*CleanHandler), arg.(*network.Message)
	if c.handle(m) {
		c.net.Free(m) // unknown origin: the thunk frees the pooled copy
	}
}

func (c *CleanHandler) Recv(m *network.Message) {
	// Synchronous reads and helper calls of the delivered message are fine.
	if m.Kind == 0 {
		c.handle(m)
	}
	// Broadcast copies the template internally; passing m is legal.
	c.net.Broadcast(m, []topo.NodeID{0, 1})
	// SendNew takes a value: building it from m's fields is legal.
	c.net.SendNew(network.Message{Src: m.Dst, Dst: m.Src, Block: m.Block})
	// The canonical defer-with-copy idiom.
	c.eng.ScheduleCall(sim.NS(1), cleanThunk, c, c.net.CopyOf(m))
}

func (c *CleanHandler) handle(m *network.Message) bool {
	// Re-deferring an unknown-origin message keeps ownership with the
	// scheduled thunk: legal (the hold-until re-defer idiom).
	if m.Aux != 0 {
		c.eng.ScheduleCallAt(sim.NS(10), cleanThunk, c, m)
		return false
	}
	return true
}

// CleanTransfers: branch-terminated transfers and revivals are not
// use-after-transfer.
type CleanTransfers struct{ Retainer }

func (r *CleanTransfers) Recv(m *network.Message) {
	cp := r.net.CopyOf(m)
	if cp.Tokens == 0 {
		r.net.Free(cp)
		return
	}
	cp.Owner = true // clean: the freeing branch returned

	done := r.net.CopyOf(m)
	if done.HasData {
		r.net.Send(done)
	} else {
		r.net.Free(done)
	}
	// no use of done after the join

	again := r.net.CopyOf(m)
	r.net.Send(again)
	again = r.net.NewMessage()
	again.Tokens = 1 // clean: reassigned from the pool
	r.net.Send(again)

	held := r.net.CopyOf(m)
	defer r.net.Free(held) // deferred free runs last: later uses are fine
	held.Aux = 3
}

// HoldHandler holds the delivered message across the access delay and
// frees it in a thunk.
type HoldHandler struct{ Retainer }

func holdThunk(ctx, arg any) { ctx.(*network.Network).Free(arg.(*network.Message)) }

func (c *HoldHandler) Recv(m *network.Message) {
	c.eng.ScheduleCall(sim.NS(1), holdThunk, c.net, c.net.Hold(m))
}

// HoldRedefer holds the delivery, then re-defers or stores the held
// message: once held it is owned, so retaining it is legal.
type HoldRedefer struct{ Retainer }

func (r *HoldRedefer) Recv(m *network.Message) {
	m = r.net.Hold(m)
	if m.Aux != 0 {
		r.eng.ScheduleCallAt(sim.NS(10), holdThunk, r.net, m)
		return
	}
	r.last = m
	r.net.SendAfter(sim.NS(2), r.last)
}
