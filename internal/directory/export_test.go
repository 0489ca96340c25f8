package directory

import (
	"fmt"

	"tokencmp/internal/mem"
)

// dumpBlock prints all protocol state for b, for test debugging.
func (s *System) dumpBlock(b mem.Block) string {
	out := ""
	for c := range s.Mems {
		h := s.Mems[c]
		if hl := h.dir.Peek(b); hl != nil {
			busy := h.ser.Busy(b) != nil
			out += fmt.Sprintf("home%d: owner=%d sharers=%b val=%d busy=%v\n",
				c, hl.owner, hl.sharers, hl.value, busy)
		}
	}
	for c := range s.L2s {
		for bk := range s.L2s[c] {
			l2 := s.L2s[c][bk]
			if l := l2.lookup(b); l != nil {
				out += fmt.Sprintf("L2[%d][%d]: cs=%v hasData=%v data=%d dirty=%v owner=%v sharers=%b pinned=%v busy=%v ext=%v\n",
					c, bk, l.cs, l.hasData, l.data, l.dirty, l.ownerL1, l.sharers, l.pinned,
					l2.busy(b) != nil, l2.ext.Peek(b) != nil)
			}
			if w := l2.wb.Valid(b); w != nil {
				out += fmt.Sprintf("L2[%d][%d]: wb data=%d\n", c, bk, w.Data)
			}
		}
	}
	for c := range s.L1Ds {
		for p := range s.L1Ds[c] {
			for _, l1 := range []*L1Ctrl{s.L1Ds[c][p], s.L1Is[c][p]} {
				if l := l1.Cache.Lookup(b); l != nil {
					out += fmt.Sprintf("L1[%v]: st=%d data=%d dirty=%v txn=%v\n",
						l1.id, l.State.St, l.State.Data, l.State.Dirty, l1.For(b) != nil)
				}
				if w := l1.wb.Valid(b); w != nil {
					out += fmt.Sprintf("L1[%v]: wb data=%d\n", l1.id, w.Data)
				}
			}
		}
	}
	return out
}
