// Package violating deliberately breaks every contract simlint
// enforces. CI builds simlint and asserts that running it over this
// package exits non-zero — a canary that the analyzers have not been
// silently disabled or defanged. It lives under testdata so build and
// test wildcards never see it; only the explicit CI invocation does.
package violating

import (
	"fmt"
	"time"

	"tokencmp/internal/counters"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
)

type Ctrl struct {
	net     *network.Network
	eng     *sim.Engine
	last    *network.Message
	pending map[mem.Block]int
	cs      *counters.Set
}

// Recv violates msgown twice: it keeps the borrowed delivery in a
// field, and it hands the message to a thunk that runs after the
// network has reclaimed it.
func (c *Ctrl) Recv(m *network.Message) {
	c.last = m
	c.eng.ScheduleCall(sim.NS(1), func(_, arg any) { _ = arg }, c, m)
}

// retryAll violates simdet: it sends in map-iteration order.
func (c *Ctrl) retryAll() {
	for b := range c.pending {
		c.net.SendNew(network.Message{Block: b})
	}
}

// clock violates simdet: wall-clock time in simulation code.
func (c *Ctrl) clock() int64 {
	return time.Now().UnixNano()
}

// register violates ctrreg: a counter name computed at runtime.
func (c *Ctrl) register(bank int) {
	c.cs.Counter(fmt.Sprintf("bank%d.miss", bank)).Inc()
}

// registerFault violates ctrreg a second way: a fault counter whose
// name concatenates a runtime suffix onto the registry constant instead
// of using counters.NetDropped itself.
func (c *Ctrl) registerFault(link string) {
	c.cs.Counter(counters.NetDropped + "." + link).Inc()
}

// startAll violates schedalloc: a ScheduleCall thunk capturing the loop
// variable allocates a fresh closure every iteration.
func (c *Ctrl) startAll(blocks []mem.Block) {
	for _, b := range blocks {
		c.eng.ScheduleCall(sim.NS(1), func(_, _ any) {
			c.pending[b]++
		}, nil, nil)
	}
}
