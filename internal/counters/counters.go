// Package counters is the uniform event-counter registry behind the
// statistical measurement layer (ROADMAP item 5, in the spirit of
// CounterPoint's cheap hardware event counters): every protocol stack
// and the network register named counters in one Set per machine, so
// cross-protocol claims ("Hammer generates ~9x the inter-CMP traffic of
// the directory protocol") can be measured with the same probe names on
// both sides and asserted statistically instead of pinned as strings.
//
// The design is allocation-free on the hot path: registration (at
// system construction time) returns a *Counter handle, and Inc/Add on a
// handle is a single word update with no map lookup, no interface call,
// and no allocation. Counter names must be compile-time string
// constants — the simlint ctrreg analyzer enforces this — so the
// counter namespace stays greppable and runs are trivially
// deterministic. The uniform names live here as constants; a protocol
// registers the subset that is meaningful for it.
package counters

import (
	"fmt"
	"io"
	"sort"
)

// Uniform counter names. A name is "<layer>.<event>" (dots separate
// hierarchy levels); protocols register the subset they implement, and
// the claims harness compares like-named counters across protocols.
const (
	// Cache-side events (all four protocol stacks).
	L1Hit       = "l1.hit"
	L1Miss      = "l1.miss"
	L1Writeback = "l1.writeback"
	L2Writeback = "l2.writeback"

	// Broadcast probe traffic (HammerCMP): probes sent by the home,
	// answered with data (owner) or a dataless ack by everyone else.
	ProbeSent = "probe.sent"
	ProbeData = "probe.data"
	ProbeAck  = "probe.ack"

	// Directory indirection events (DirectoryCMP).
	FwdSent = "fwd.sent"
	InvSent = "inv.sent"

	// Token-coherence request machinery (TokenCMP variants).
	ReqTransient  = "req.transient"
	ReqRetry      = "req.retry"
	ReqTimeout    = "req.timeout"
	ReqPersistent = "req.persistent"

	// Policy events shared by several stacks.
	MigratoryGrant = "grant.migratory"

	// Writeback races: a buffered writeback consumed by a concurrent
	// probe/forward, answered with a cancel instead of data.
	WritebackRace = "wb.race"

	// Memory-controller array traffic.
	MemRead  = "mem.read"
	MemWrite = "mem.write"

	// Interconnect traffic by level (the network layer). A "msg" is one
	// protocol message on the level it crosses; a "hop" is one link
	// traversal, so a chip-crossing message adds inter-CMP and (for each
	// cache-side endpoint) intra-CMP hops, mirroring Figure 7's
	// accounting.
	NetMsgIntraCMP   = "net.msg.intra_cmp"
	NetMsgInterCMP   = "net.msg.inter_cmp"
	NetBytesIntraCMP = "net.bytes.intra_cmp"
	NetBytesInterCMP = "net.bytes.inter_cmp"
	NetHopIntraCMP   = "net.hop.intra_cmp"
	NetHopInterCMP   = "net.hop.inter_cmp"

	// Fault injection (the network's seeded fault layer): injected
	// losses, duplicates, and reorders, plus retransmissions by the
	// ack+retransmit shim covering token/data-carrying drops.
	NetDropped   = "net.dropped"
	NetDup       = "net.dup"
	NetReordered = "net.reordered"
	NetRetx      = "net.retx"
)

// Counter is one registered event counter. The zero value counts from
// zero; handles are stable for the life of their Set.
type Counter struct {
	v uint64
}

// Inc adds one event.
func (c *Counter) Inc() { c.v++ }

// Add folds in n events (or n bytes, for size-weighted counters).
func (c *Counter) Add(n uint64) { c.v += n }

// Value reports the accumulated count.
func (c *Counter) Value() uint64 { return c.v }

// Set is the per-machine counter registry. It is not safe for
// concurrent use: a Set belongs to one simulated machine, and machines
// are single-threaded by construction (parallelism in this repo is
// across independent runs).
type Set struct {
	byName map[string]*Counter
}

// NewSet returns an empty registry.
func NewSet() *Set {
	return &Set{byName: make(map[string]*Counter)}
}

// Counter registers name and returns its handle; registering an
// already-known name returns the existing handle, so independent
// components (e.g. the network and a protocol stack) may share a
// counter. name must be a compile-time string constant (enforced by
// the simlint ctrreg analyzer).
func (s *Set) Counter(name string) *Counter {
	if c, ok := s.byName[name]; ok {
		return c
	}
	c := &Counter{}
	s.byName[name] = c
	return c
}

// Value reports the count of name (0 if never registered).
func (s *Set) Value(name string) uint64 {
	if c, ok := s.byName[name]; ok {
		return c.v
	}
	return 0
}

// Snapshot copies the current values into a fresh map — the form
// results carry out of a finished run so they can be merged across
// seeds.
func (s *Set) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(s.byName))
	for name, c := range s.byName {
		out[name] = c.v
	}
	return out
}

// MergeInto folds a snapshot into an accumulator map (commutative
// integer adds, so merge order never affects the result).
func MergeInto(acc map[string]uint64, snap map[string]uint64) {
	for name, v := range snap {
		acc[name] += v
	}
}

// Fprint writes a sorted, aligned table of a snapshot — the rendering
// behind the cmds' -counters flag.
func Fprint(w io.Writer, snap map[string]uint64) {
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-24s %12d\n", name, snap[name])
	}
}
