//go:build simdebug

package network

import (
	"tokencmp/internal/mem"
	"tokencmp/internal/sim"
	"tokencmp/internal/topo"
)

// PoisonEnabled reports whether recycled messages are scrambled
// (-tags simdebug builds only).
const PoisonEnabled = true

// poison scrambles every field of a reclaimed message with values no
// legitimate message carries, so a handler that retained the pointer
// past Recv (breaking the ownership contract) reads garbage —
// block numbers, token counts, and node IDs that corrupt its figures or
// trip its own panics — instead of silently seeing whatever the next
// send happened to write.
func poison(m *Message) {
	*m = Message{
		Src:       topo.NodeID(-0x7eadbeef),
		Dst:       topo.NodeID(-0x7eadbeef),
		Block:     mem.Block(0xdeadbeefdeadbeef),
		Kind:      -0x7eadbeef,
		Tokens:    -0x7eadbeef,
		Owner:     true,
		HasData:   true,
		Dirty:     true,
		Data:      0xdeadbeefdeadbeef,
		Requestor: topo.NodeID(-0x7eadbeef),
		Proc:      -0x7eadbeef,
		Aux:       -0x7eadbeef,
		SentAt:    sim.Time(-1),
	}
}
