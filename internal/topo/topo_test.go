package topo

import (
	"testing"
	"testing/quick"

	"tokencmp/internal/mem"
)

// indexOf reports an endpoint's index within its kind on its CMP (the
// processor number for L1s, the bank number for L2s, 0 for memory).
func indexOf(g Geometry, id NodeID) int {
	off := int(id) % g.nodesPerCMP()
	switch {
	case off < g.ProcsPerCMP:
		return off
	case off < 2*g.ProcsPerCMP:
		return off - g.ProcsPerCMP
	case off < 2*g.ProcsPerCMP+g.L2Banks:
		return off - 2*g.ProcsPerCMP
	default:
		return 0
	}
}

func TestGeometryRoundTrip(t *testing.T) {
	g := NewGeometry(4, 4, 4)
	if g.NumNodes() != 4*(2*4+4+1) {
		t.Errorf("NumNodes = %d", g.NumNodes())
	}
	for c := 0; c < 4; c++ {
		for p := 0; p < 4; p++ {
			for _, pair := range []struct {
				id   NodeID
				kind Kind
			}{
				{g.L1DNode(c, p), L1D},
				{g.L1INode(c, p), L1I},
			} {
				if g.KindOf(pair.id) != pair.kind {
					t.Errorf("KindOf(%v) = %v, want %v", pair.id, g.KindOf(pair.id), pair.kind)
				}
				if g.CMPOf(pair.id) != c || indexOf(g, pair.id) != p {
					t.Errorf("CMP/Index of %v = %d/%d, want %d/%d",
						pair.id, g.CMPOf(pair.id), indexOf(g, pair.id), c, p)
				}
			}
		}
		if g.KindOf(g.MemNode(c)) != Mem || g.CMPOf(g.MemNode(c)) != c {
			t.Errorf("mem node %d misclassified", c)
		}
		for b := 0; b < 4; b++ {
			id := g.L2Node(c, b)
			if g.KindOf(id) != L2 || indexOf(g, id) != b {
				t.Errorf("L2 node (%d,%d) misclassified", c, b)
			}
		}
	}
}

func TestNodeSetSizes(t *testing.T) {
	g := NewGeometry(4, 4, 4)
	if got := len(g.AllCaches()); got != 48 {
		t.Errorf("caches = %d, want 48", got)
	}
	if got := len(g.Mems()); got != 4 {
		t.Errorf("mems = %d, want 4", got)
	}
	if got := len(g.L1sInCMP(0)); got != 8 {
		t.Errorf("L1s per CMP = %d, want 8", got)
	}
	if got := g.CachesPerCMP(); got != 12 {
		t.Errorf("caches per CMP = %d, want 12", got)
	}
}

func TestProcMapping(t *testing.T) {
	g := NewGeometry(4, 4, 4)
	for gp := 0; gp < g.TotalProcs(); gp++ {
		c, p := g.ProcOf(gp)
		if g.GlobalProc(c, p) != gp {
			t.Errorf("proc mapping not a bijection at %d", gp)
		}
	}
}

func TestPriorityLocality(t *testing.T) {
	g := NewGeometry(4, 4, 4)
	// Priorities within a CMP must be consecutive, so contended handoffs
	// favor on-chip neighbors (§3.2).
	for c := 0; c < 4; c++ {
		for p := 0; p < 3; p++ {
			if g.GlobalProc(c, p+1)-g.GlobalProc(c, p) != 1 {
				t.Fatal("priorities not consecutive within a CMP")
			}
		}
	}
}

// TestL1Bits checks that each L1 of a CMP owns one sharer-mask bit, the
// L1Ds the low ProcsPerCMP bits by processor and the L1Is the next, and
// that L1FromBit inverts L1Bit.
func TestL1Bits(t *testing.T) {
	g := NewGeometry(3, 4, 2)
	for c := 0; c < g.CMPs; c++ {
		for p := 0; p < g.ProcsPerCMP; p++ {
			for bit, id := range map[int]NodeID{p: g.L1DNode(c, p), g.ProcsPerCMP + p: g.L1INode(c, p)} {
				if got := g.L1Bit(id); got != 1<<uint(bit) {
					t.Errorf("L1Bit(%v) = %#x, want bit %d", id, got, bit)
				}
				if got := g.L1FromBit(c, bit); got != id {
					t.Errorf("L1FromBit(%d, %d) = %v, want %v", c, bit, got, id)
				}
			}
		}
	}
}

func TestHomeAndBankMapping(t *testing.T) {
	g := NewGeometry(4, 4, 4)
	counts := map[NodeID]int{}
	for b := 0; b < 1024; b++ {
		counts[g.HomeMem(mem.Block(b))]++
	}
	for _, m := range g.Mems() {
		if counts[m] != 256 {
			t.Errorf("home %v serves %d of 1024 blocks, want 256", m, counts[m])
		}
	}
}

// TestInterleaveSpread checks that consecutive blocks interleave across
// the L2 banks first and the CMP homes next, so 4096 blocks spread
// evenly over 4 banks and 4 homes.
func TestInterleaveSpread(t *testing.T) {
	g := NewGeometry(4, 4, 4)
	for _, c := range []struct {
		blk        mem.Block
		bank, home int
	}{{0, 0, 0}, {1, 1, 0}, {3, 3, 0}, {4, 0, 1}, {5, 1, 1}, {15, 3, 3}, {16, 0, 0}, {17, 1, 0}} {
		if bank, home := g.Bank(c.blk), g.CMPOf(g.HomeMem(c.blk)); bank != c.bank || home != c.home {
			t.Errorf("block %d: bank %d, home CMP %d; want %d, %d", c.blk, bank, home, c.bank, c.home)
		}
	}
	banks := map[int]int{}
	homes := map[NodeID]int{}
	for b := 0; b < 4096; b++ {
		banks[g.Bank(mem.Block(b))]++
		homes[g.HomeMem(mem.Block(b))]++
	}
	for i := 0; i < 4; i++ {
		if banks[i] != 1024 {
			t.Errorf("bank %d got %d blocks, want 1024", i, banks[i])
		}
		if m := g.MemNode(i); homes[m] != 1024 {
			t.Errorf("home %v got %d blocks, want 1024", m, homes[m])
		}
	}
}

// TestInterleaveDegenerate checks that a machine of one bank and one
// CMP maps every block to them.
func TestInterleaveDegenerate(t *testing.T) {
	g := NewGeometry(1, 1, 1)
	for b := 0; b < 100; b++ {
		if g.Bank(mem.Block(b)) != 0 || g.L2BankFor(0, mem.Block(b)) != g.L2Node(0, 0) || g.HomeMem(mem.Block(b)) != g.MemNode(0) {
			t.Fatal("single bank/CMP must map to zero")
		}
	}
}

// Property: a block's bank and home are always in range, and
// L2BankFor names the Bank-th bank of the asked CMP.
func TestPropertyInterleaveInRange(t *testing.T) {
	g := NewGeometry(3, 4, 2)
	f := func(b uint64, c uint8) bool {
		blk, cmp := mem.Block(b), int(c)%g.CMPs
		bank := g.Bank(blk)
		return bank >= 0 && bank < g.L2Banks && g.L2BankFor(cmp, blk) == g.L2Node(cmp, bank) &&
			g.KindOf(g.HomeMem(blk)) == Mem && g.CMPOf(g.HomeMem(blk)) < g.CMPs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every NodeID classifies into exactly one kind and round-trips
// through its constructor.
func TestPropertyKindPartition(t *testing.T) {
	g := NewGeometry(4, 4, 4)
	f := func(raw uint8) bool {
		id := NodeID(int(raw) % g.NumNodes())
		c := g.CMPOf(id)
		switch g.KindOf(id) {
		case L1D:
			return g.L1DNode(c, indexOf(g, id)) == id
		case L1I:
			return g.L1INode(c, indexOf(g, id)) == id
		case L2:
			return g.L2Node(c, indexOf(g, id)) == id
		default:
			return g.MemNode(c) == id
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
