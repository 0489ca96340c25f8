package token

import (
	"math/bits"

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

// Entry is one remembered persistent request. Its fields are ordered
// widest first, so an entry fills 32 bytes.
type Entry struct {
	Block  mem.Block
	Kind   ReqKind
	Proc   int         // issuing processor
	Dest   topo.NodeID // cache to which tokens must be forwarded
	Valid  bool
	Marked bool // set by the marking mechanism (§3.2)
}

// DistributedTable is the distributed-activation persistent request table
// kept at every cache and memory controller: one entry per processor,
// fixed priority by processor number (lower index wins), and a marking
// bit per entry implementing FutureBus-style waves.
//
// A processor initiates at most one persistent request at a time (§3.2),
// so the table is a dense array indexed by processor plus a bitset of
// the valid entries. Lookups visit only the set bits, in ascending
// processor order, so a table with no valid entry costs one word test
// per 64 processors however large the machine.
type DistributedTable struct {
	entries []Entry
	valid   []uint64 // bit p%64 of word p/64 is set when entries[p] is valid
}

// NewDistributedTable builds a table for a system with procs processors.
// It returns the table by value, so an endpoint can hold it in place.
func NewDistributedTable(procs int) DistributedTable {
	return DistributedTable{entries: make([]Entry, procs), valid: make([]uint64, (procs+63)/64)}
}

// Insert records processor proc's persistent request. Inserting over an
// existing valid entry for the same processor replaces it (a processor
// initiates at most one persistent request at a time).
func (t *DistributedTable) Insert(proc int, b mem.Block, kind ReqKind, dest topo.NodeID) {
	t.entries[proc] = Entry{Valid: true, Block: b, Kind: kind, Dest: dest, Proc: proc}
	t.valid[proc/64] |= 1 << (proc % 64)
}

// Deactivate clears processor proc's entry and reports the block it was
// requesting so the holder can re-evaluate forwarding for that block.
func (t *DistributedTable) Deactivate(proc int) (mem.Block, bool) {
	e := &t.entries[proc]
	b, ok := e.Block, e.Valid
	*e = Entry{}
	t.valid[proc/64] &^= 1 << (proc % 64)
	return b, ok
}

// next returns the lowest-numbered valid entry for block b at or after
// processor from, or nil.
func (t *DistributedTable) next(b mem.Block, from int) *Entry {
	for w := from / 64; w < len(t.valid); w++ {
		set := t.valid[w]
		if w == from/64 {
			set &^= 1<<(from%64) - 1
		}
		for set != 0 {
			e := &t.entries[w*64+bits.TrailingZeros64(set)]
			if e.Block == b {
				return e
			}
			set &= set - 1
		}
	}
	return nil
}

// Active returns the highest-priority valid entry for block b, the one
// the table activates, or nil. The entry's Proc names its processor.
// The pointer is into the table: it is valid until the table changes.
func (t *DistributedTable) Active(b mem.Block) *Entry { return t.next(b, 0) }

// MarkAllFor sets the mark bit on every valid entry for block b. The
// deactivating processor calls this on its own local table; it may not
// issue a new persistent request for the block until the marked entries
// deactivate.
func (t *DistributedTable) MarkAllFor(b mem.Block) {
	for e := t.next(b, 0); e != nil; e = t.next(b, e.Proc+1) {
		e.Marked = true
	}
}

// HasMarked reports whether any marked entry for block b remains.
func (t *DistributedTable) HasMarked(b mem.Block) bool {
	for e := t.next(b, 0); e != nil; e = t.next(b, e.Proc+1) {
		if e.Marked {
			return true
		}
	}
	return false
}

// ArbTable is the per-endpoint table of the arbiter-based scheme: it
// remembers the single activated persistent request per block, as
// broadcast by the arbiter at the block's home memory controller.
//
// Each active request belongs to a distinct processor waiting on a
// miss, so the table holds few entries at once: it is a short slice,
// unique by block, scanned linearly. The zero value is an empty table.
type ArbTable struct {
	active []Entry
}

// Activate records the activated request for b, replacing any earlier
// one for b.
func (t *ArbTable) Activate(b mem.Block, kind ReqKind, dest topo.NodeID, proc int) {
	e := Entry{Valid: true, Block: b, Kind: kind, Dest: dest, Proc: proc}
	if cur := t.Active(b); cur != nil {
		*cur = e
		return
	}
	t.active = append(t.active, e)
}

// Deactivate clears the activated request for b if it belongs to proc
// (guarding against activate/deactivate reordering on the interconnect).
func (t *ArbTable) Deactivate(b mem.Block, proc int) {
	for i := range t.active {
		if t.active[i].Block == b {
			if t.active[i].Proc == proc {
				last := len(t.active) - 1
				t.active[i] = t.active[last]
				t.active = t.active[:last]
			}
			return
		}
	}
}

// Active returns the activated request for b, or nil. The pointer is
// into the table: it is valid until the table changes.
func (t *ArbTable) Active(b mem.Block) *Entry {
	for i := range t.active {
		if t.active[i].Block == b {
			return &t.active[i]
		}
	}
	return nil
}

// Arbiter is the home-side queue of the arbiter-based scheme: fair FIFO
// per block, at most one activated request per block (§3.2). The zero
// Arbiter is empty and ready to use.
type Arbiter struct {
	queues blocktab.Queues[arbReq]
	active blocktab.Table[arbReq]
}

type arbReq struct {
	Proc int
	Kind ReqKind
	Dest topo.NodeID
}

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

// Cancel removes proc's request for b whether it is active or still
// queued; a requester that was satisfied by transient responses before
// activation uses this. It reports whether the request was the active
// one, and whether the next queued request took the freed active slot
// (see ActiveFor).
func (a *Arbiter) Cancel(b mem.Block, proc int) (wasActive, hasNext bool) {
	cur := a.active.Peek(b)
	if cur == nil || cur.Proc != proc {
		a.queues.Remove(b, func(r *arbReq) bool { return r.Proc == proc })
		return false, false
	}
	nxt, ok := a.queues.Pop(b)
	if !ok {
		a.active.Delete(b)
		return true, false
	}
	*cur = nxt
	return true, true
}

// ActiveFor reports the active request for b, if any.
func (a *Arbiter) ActiveFor(b mem.Block) (Entry, bool) {
	r := a.active.Peek(b)
	if r == nil {
		return Entry{}, false
	}
	return Entry{Valid: true, Block: b, Kind: r.Kind, Dest: r.Dest, Proc: r.Proc}, true
}
