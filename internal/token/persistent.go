package token

import (
	"tokencmp/internal/blocktab"
	"tokencmp/internal/mem"
	"tokencmp/internal/topo"
)

// ReqKind distinguishes persistent write requests (collect all tokens)
// from the paper's new persistent read requests (force holders to give up
// all but one token, §3.2).
type ReqKind int

// Persistent request kinds.
const (
	ReqWrite ReqKind = iota
	ReqRead
)

func (k ReqKind) String() string {
	if k == ReqRead {
		return "read"
	}
	return "write"
}

// Entry is one remembered persistent request.
type Entry struct {
	Valid  bool
	Block  mem.Block
	Kind   ReqKind
	Dest   topo.NodeID // cache to which tokens must be forwarded
	Proc   int         // issuing processor
	Marked bool        // set by the marking mechanism (§3.2)
}

// DistributedTable is the distributed-activation persistent request table
// kept at every cache and memory controller: one entry per processor,
// fixed priority by processor number (lower index wins), and a marking
// bit per entry implementing FutureBus-style waves.
type DistributedTable struct {
	entries []Entry
}

// NewDistributedTable builds a table for a system with procs processors.
func NewDistributedTable(procs int) *DistributedTable {
	return &DistributedTable{entries: make([]Entry, procs)}
}

// Insert records processor proc's persistent request. Inserting over an
// existing valid entry for the same processor replaces it (a processor
// initiates at most one persistent request at a time).
func (t *DistributedTable) Insert(proc int, b mem.Block, kind ReqKind, dest topo.NodeID) {
	t.entries[proc] = Entry{Valid: true, Block: b, Kind: kind, Dest: dest, Proc: proc}
}

// Deactivate clears processor proc's entry and reports the block it was
// requesting so the holder can re-evaluate forwarding for that block.
func (t *DistributedTable) Deactivate(proc int) (mem.Block, bool) {
	e := t.entries[proc]
	t.entries[proc] = Entry{}
	return e.Block, e.Valid
}

// Active returns the highest-priority valid entry for block b (the one
// the table activates) and the processor owning it.
func (t *DistributedTable) Active(b mem.Block) (proc int, e Entry, ok bool) {
	for i := range t.entries {
		if t.entries[i].Valid && t.entries[i].Block == b {
			return i, t.entries[i], true
		}
	}
	return 0, Entry{}, false
}

// IsActive reports whether processor proc's request is the active one for
// its block.
func (t *DistributedTable) IsActive(proc int) bool {
	e := t.entries[proc]
	if !e.Valid {
		return false
	}
	p, _, ok := t.Active(e.Block)
	return ok && p == proc
}

// Get returns processor proc's entry.
func (t *DistributedTable) Get(proc int) Entry { return t.entries[proc] }

// MarkAllFor sets the mark bit on every valid entry for block b. The
// deactivating processor calls this on its own local table; it may not
// issue a new persistent request for the block until the marked entries
// deactivate.
func (t *DistributedTable) MarkAllFor(b mem.Block) {
	for i := range t.entries {
		if t.entries[i].Valid && t.entries[i].Block == b {
			t.entries[i].Marked = true
		}
	}
}

// HasMarked reports whether any marked entry for block b remains.
func (t *DistributedTable) HasMarked(b mem.Block) bool {
	for i := range t.entries {
		if t.entries[i].Valid && t.entries[i].Marked && t.entries[i].Block == b {
			return true
		}
	}
	return false
}

// ArbTable is the per-endpoint table of the arbiter-based scheme: it
// remembers the single activated persistent request per block, as
// broadcast by the arbiter at the block's home memory controller.
type ArbTable struct {
	active blocktab.Table[Entry]
}

// NewArbTable builds an empty arbiter-scheme table.
func NewArbTable() *ArbTable { return &ArbTable{} }

// Activate records the activated request for b.
func (t *ArbTable) Activate(b mem.Block, kind ReqKind, dest topo.NodeID, proc int) {
	*t.active.At(b) = Entry{Valid: true, Block: b, Kind: kind, Dest: dest, Proc: proc}
}

// Deactivate clears the activated request for b if it belongs to proc
// (guarding against activate/deactivate reordering on the interconnect).
func (t *ArbTable) Deactivate(b mem.Block, proc int) {
	if e := t.active.Peek(b); e != nil && e.Proc == proc {
		t.active.Delete(b)
	}
}

// Active returns the activated request for b, if any.
func (t *ArbTable) Active(b mem.Block) (Entry, bool) {
	if e := t.active.Peek(b); e != nil {
		return *e, true
	}
	return Entry{}, false
}

// Arbiter is the home-side queue of the arbiter-based scheme: fair FIFO
// per block, at most one activated request per block (§3.2).
type Arbiter struct {
	queues blocktab.Queues[arbReq]
	active blocktab.Table[arbReq]
}

type arbReq struct {
	Proc int
	Kind ReqKind
	Dest topo.NodeID
}

// NewArbiter builds an empty arbiter.
func NewArbiter() *Arbiter { return &Arbiter{} }

// Request enqueues a persistent request; it reports whether the request
// became active immediately (no other active request for the block).
func (a *Arbiter) Request(b mem.Block, proc int, kind ReqKind, dest topo.NodeID) bool {
	r := arbReq{Proc: proc, Kind: kind, Dest: dest}
	if cur, fresh := a.active.Insert(b); fresh {
		*cur = r
		return true
	}
	a.queues.Push(b, r)
	return false
}

// Done deactivates the active request for b (which must belong to proc)
// and returns the next request to activate, if any.
func (a *Arbiter) Done(b mem.Block, proc int) (next Entry, procID int, ok bool) {
	cur := a.active.Peek(b)
	if cur == nil || cur.Proc != proc {
		return Entry{}, 0, false
	}
	nxt, ok := a.queues.Pop(b)
	if !ok {
		a.active.Delete(b)
		return Entry{}, 0, false
	}
	*cur = nxt
	return Entry{Valid: true, Block: b, Kind: nxt.Kind, Dest: nxt.Dest, Proc: nxt.Proc}, nxt.Proc, true
}

// Cancel removes proc's request for b whether it is active or still
// queued; a requester that was satisfied by transient responses before
// activation uses this. If the active slot was freed and another request
// was queued, the next activation is returned.
func (a *Arbiter) Cancel(b mem.Block, proc int) (next Entry, procID int, wasActive, ok bool) {
	if cur := a.active.Peek(b); cur != nil && cur.Proc == proc {
		n, p, o := a.Done(b, proc)
		return n, p, true, o
	}
	a.queues.Remove(b, func(r *arbReq) bool { return r.Proc == proc })
	return Entry{}, 0, false, false
}

// ActiveFor reports the active request for b, if any.
func (a *Arbiter) ActiveFor(b mem.Block) (Entry, int, bool) {
	r := a.active.Peek(b)
	if r == nil {
		return Entry{}, 0, false
	}
	return Entry{Valid: true, Block: b, Kind: r.Kind, Dest: r.Dest, Proc: r.Proc}, r.Proc, true
}
