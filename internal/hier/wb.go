package hier

import (
	"fmt"

	"tokencmp/internal/blocktab"
	"tokencmp/internal/counters"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/topo"
)

// WbEntry is one buffered three-phase writeback.
type WbEntry struct {
	Data  uint64
	Dirty bool
	Excl  bool // the copy is exclusive (hammercmp: the line was M, not O)
	Valid bool // cleared when a forward or probe consumed the copy
}

// WbReplies names a stack's three-phase writeback messages: its Put,
// WbGrant, WbData and WbCancel kinds, the Aux flag marking an exclusive
// copy (0 if the stack has none), and the wb.race counter.
type WbReplies struct {
	Put, Grant, Data, Cancel int32
	ExclAux                  int32
	Race                     *counters.Counter
}

// GrantPut answers the Put message put at controller id: it grants the
// evictor permission to send its data.
func (r *WbReplies) GrantPut(net *network.Network, id topo.NodeID, put *network.Message) {
	net.SendNew(network.Message{
		Src:   id,
		Dst:   put.Src,
		Block: put.Block,
		Kind:  r.Grant,
	})
}

// WbBuffer holds one controller's three-phase writebacks awaiting their
// grants, as a FIFO per block: a line can be re-acquired and evicted
// again before the first grant arrives, and per-link delivery order
// hands out grants front-first. A newer writeback supersedes the older
// ones, so at most the newest entry is valid, and a block's FIFO is
// kept as its length and its newest entry.
type WbBuffer struct {
	id  topo.NodeID
	net *network.Network
	r   *WbReplies
	q   blocktab.Table[wbQueue]
}

// wbQueue is one block's writebacks: n of them await grants, and every
// one but the newest is superseded.
type wbQueue struct {
	n      int
	newest WbEntry
}

// NewWbBuffer returns the writeback buffer of controller id.
func NewWbBuffer(id topo.NodeID, net *network.Network, r *WbReplies) WbBuffer {
	return WbBuffer{id: id, net: net, r: r}
}

// Put starts a three-phase writeback of b to dst: it buffers a valid
// copy until the grant arrives and sends dst the Put.
func (w *WbBuffer) Put(dst topo.NodeID, b mem.Block, data uint64, dirty, excl bool) {
	q := w.q.At(b)
	q.n++
	q.newest = WbEntry{Data: data, Dirty: dirty, Excl: excl, Valid: true}
	w.net.SendNew(network.Message{
		Src:   w.id,
		Dst:   dst,
		Block: b,
		Kind:  w.r.Put,
	})
}

// Valid returns the buffered valid copy of b, or nil.
func (w *WbBuffer) Valid(b mem.Block) *WbEntry {
	q := w.q.Peek(b)
	if q == nil || !q.newest.Valid {
		return nil
	}
	return &q.newest
}

// Grant answers the writeback grant gm: it pops the front entry of
// gm.Block and sends the grantor the data, or a cancel (a writeback
// race) if a newer writeback, a forward or a probe consumed the copy.
func (w *WbBuffer) Grant(gm *network.Message) {
	b := gm.Block
	q := w.q.Peek(b)
	if q == nil {
		panic(fmt.Sprintf("hier: %v WbGrant without a buffered writeback for %v", w.id, b))
	}
	var e WbEntry // a superseded front entry is invalid
	if q.n--; q.n == 0 {
		e = q.newest
		w.q.Delete(b)
	}
	if !e.Valid {
		w.r.Race.Inc()
		w.net.SendNew(network.Message{
			Src:   w.id,
			Dst:   gm.Src,
			Block: b,
			Kind:  w.r.Cancel,
		})
		return
	}
	var aux int32
	if e.Excl {
		aux = w.r.ExclAux
	}
	w.net.SendNew(network.Message{
		Src:     w.id,
		Dst:     gm.Src,
		Block:   b,
		Kind:    w.r.Data,
		HasData: true,
		Data:    e.Data,
		Dirty:   e.Dirty,
		Aux:     aux,
	})
}
