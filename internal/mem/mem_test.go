package mem

import (
	"testing"
	"testing/quick"
)

func TestBlockOf(t *testing.T) {
	if BlockOf(0) != 0 || BlockOf(63) != 0 || BlockOf(64) != 1 {
		t.Error("block boundaries wrong")
	}
	if Block(5).Addr() != 320 {
		t.Errorf("block 5 addr = %d, want 320", Block(5).Addr())
	}
}

// Property: BlockOf inverts Block.Addr for any in-block offset.
func TestPropertyBlockRoundTrip(t *testing.T) {
	f := func(b uint32, off uint8) bool {
		blk := Block(b)
		return BlockOf(blk.Addr()+Addr(off)%BlockSize) == blk
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
