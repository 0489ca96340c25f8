package hier

import "tokencmp/internal/mem"

// BlockArg is the payload of a delayed call about one block: a
// controller schedules its thunk with ScheduleCall, passing itself as
// ctx and a BlockArg as arg, instead of a closure over (block, seq).
// Seq is the caller's staleness guard (a miss or transaction number).
type BlockArg struct {
	Block mem.Block
	Seq   uint64
}

// BlockArgs is a controller's free list of BlockArgs, so a steady
// stream of delayed calls allocates nothing. The zero value is ready.
type BlockArgs struct{ free []*BlockArg }

// New returns a BlockArg holding (b, seq).
func (p *BlockArgs) New(b mem.Block, seq uint64) *BlockArg {
	if k := len(p.free); k > 0 {
		a := p.free[k-1]
		p.free = p.free[:k-1]
		a.Block, a.Seq = b, seq
		return a
	}
	return &BlockArg{Block: b, Seq: seq}
}

// Take returns a's fields and recycles a; a thunk calls it first.
func (p *BlockArgs) Take(a *BlockArg) (mem.Block, uint64) {
	p.free = append(p.free, a)
	return a.Block, a.Seq
}
