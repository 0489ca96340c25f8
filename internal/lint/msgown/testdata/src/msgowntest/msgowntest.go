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

// Retainer breaks the borrowing rule in every way msgown checks.
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

var lastDelivered *network.Message

type StoreRetainer struct{ Retainer }

func (r *StoreRetainer) Recv(m *network.Message) {
	r.last = m                          // want `borrowed message m stored in a field; the network reclaims it when Recv returns`
	r.held[m.Block] = m                 // want `borrowed message m stored in a slice or map`
	r.queue = append(r.queue, m)        // want `borrowed message m appended to a slice`
	r.ch <- m                           // want `borrowed message m sent on a channel`
	pair := [2]*network.Message{m, nil} // want `borrowed message m stored in a composite literal`
	_ = pair
	slot := &r.last
	*slot = m         // want `borrowed message m stored through a pointer`
	lastDelivered = m // want `borrowed message m stored in a package variable`
}

// AliasRetainer retains the delivery through a chain of locals.
type AliasRetainer struct{ Retainer }

func (r *AliasRetainer) Recv(m *network.Message) {
	alias := m
	var again = alias
	r.last = again // want `borrowed message again stored in a field`
}

type ClosureRetainer struct{ Retainer }

func (r *ClosureRetainer) Recv(m *network.Message) {
	r.eng.ScheduleCall(sim.NS(1), func(_, _ any) { // want `closure scheduled with ScheduleCall captures borrowed message m`
		r.use(m)
	}, r, nil)
	r.eng.ScheduleCall(sim.NS(1), retainThunk, r, m) // want `borrowed message m passed to ScheduleCall`
	r.fn = func() { r.use(m) }                       // want `closure stored in a variable captures borrowed message m`
	go func() { r.use(m) }()                         // want `closure started as a goroutine captures borrowed message m`
	go r.use(m)                                      // want `borrowed message m passed to a goroutine`
}

func retainThunk(_, arg any) { _ = arg.(*network.Message) }

// HandleRetainer re-defers its delivery correctly, then keeps the
// message anyway: the network frees it as soon as the re-deferred Recv
// returns.
type HandleRetainer struct{ Retainer }

func (r *HandleRetainer) Recv(m *network.Message) {
	r.net.HandleAfter(sim.NS(1), m)
	r.last = m                                                           // want `borrowed message m stored in a field; the network reclaims it when Recv returns`
	r.eng.ScheduleCallAt(sim.NS(2), retainThunk, r, m)                   // want `borrowed message m passed to ScheduleCallAt`
	r.eng.ScheduleCallAt(sim.NS(3), func(_, _ any) { r.use(m) }, r, nil) // want `closure scheduled with ScheduleCallAt captures borrowed message m`
}

// --- Legal idioms below: the analyzer must stay silent. ---

// CleanHandler is the production idiom: the network calls Recv after
// the endpoint's access delay, and Recv re-defers the message, re-admits
// a queued request and replies with values.
type CleanHandler struct {
	Retainer
	queued network.Message
}

func (c *CleanHandler) Recv(m *network.Message) {
	// Synchronous reads and helper calls of the delivered message are fine.
	if m.Kind == 0 {
		c.use(m)
	}
	// Broadcast copies the template internally; passing m is legal.
	c.net.Broadcast(m, []topo.NodeID{0, 1})
	// SendNew takes a value: building it from m's fields is legal.
	c.net.SendNew(network.Message{Src: m.Dst, Dst: m.Src, Block: m.Block})
	if m.Aux != 0 {
		// The response-delay idiom: the network takes the live message
		// over again.
		c.net.HandleAfter(sim.NS(10), m)
		return
	}
	// A drain: the network defers a pooled copy of the stack value.
	q := c.queued
	c.net.HandleAfter(0, &q)
	// Value copies of the message are the handler's own.
	c.queued = *m
	c.net.SendNew(*m)
	c.net.SendAfter(sim.NS(2), *m)
	// An immediately-invoked closure runs before Recv returns.
	func() { c.use(m) }()
	// A thunk that gets only the handler, not the message.
	c.eng.ScheduleCall(sim.NS(1), cleanThunk, c, nil)
}

func cleanThunk(ctx, _ any) { _ = ctx.(*CleanHandler) }
