// Package topo names the coherence endpoints of an M-CMP system and
// provides the geometry arithmetic every protocol needs: which caches sit
// in which CMP, which L2 bank serves a block, and where a block's home
// memory controller lives.
//
// Endpoints are the units that hold tokens and protocol state: L1 data
// caches, L1 instruction caches, L2 banks, and memory controllers.
// Processors are not endpoints; they talk to their L1s directly.
package topo

import (
	"fmt"

	"tokencmp/internal/mem"
)

// NodeID identifies one coherence endpoint in the system. It is 32
// bits wide so the two endpoints of a network.Message pack into one
// word.
type NodeID int32

// None is the invalid NodeID.
const None NodeID = -1

// Kind classifies an endpoint.
type Kind int

// Endpoint kinds.
const (
	L1D Kind = iota
	L1I
	L2
	Mem
)

func (k Kind) String() string {
	switch k {
	case L1D:
		return "L1D"
	case L1I:
		return "L1I"
	case L2:
		return "L2"
	case Mem:
		return "Mem"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Geometry describes the shape of the machine (Table 3 defaults: 4 CMPs,
// 4 processors per CMP, 4 L2 banks per CMP).
type Geometry struct {
	CMPs        int
	ProcsPerCMP int
	L2Banks     int // per CMP
}

// NewGeometry builds a Geometry.
func NewGeometry(cmps, procs, banks int) Geometry {
	return Geometry{CMPs: cmps, ProcsPerCMP: procs, L2Banks: banks}
}

// Per-CMP node layout: [L1D x procs][L1I x procs][L2 x banks][Mem].
func (g Geometry) nodesPerCMP() int { return 2*g.ProcsPerCMP + g.L2Banks + 1 }

// NumNodes reports the total number of endpoints.
func (g Geometry) NumNodes() int { return g.CMPs * g.nodesPerCMP() }

// TotalProcs reports the number of processors in the system.
func (g Geometry) TotalProcs() int { return g.CMPs * g.ProcsPerCMP }

// L1DNode returns the L1 data cache of processor p on CMP c.
func (g Geometry) L1DNode(c, p int) NodeID {
	return NodeID(c*g.nodesPerCMP() + p)
}

// L1INode returns the L1 instruction cache of processor p on CMP c.
func (g Geometry) L1INode(c, p int) NodeID {
	return NodeID(c*g.nodesPerCMP() + g.ProcsPerCMP + p)
}

// L2Node returns L2 bank b on CMP c.
func (g Geometry) L2Node(c, b int) NodeID {
	return NodeID(c*g.nodesPerCMP() + 2*g.ProcsPerCMP + b)
}

// MemNode returns the memory controller of CMP c.
func (g Geometry) MemNode(c int) NodeID {
	return NodeID(c*g.nodesPerCMP() + 2*g.ProcsPerCMP + g.L2Banks)
}

// The sharer masks are 64 bits wide: a CMP's L1 mask (L1Bit) holds all
// 2·ProcsPerCMP of its L1s, and the directory home's CMP mask holds
// one bit per CMP. A larger geometry would lose caches from the masks.
const (
	MaxProcsPerCMP = 32
	MaxCMPs        = 64
)

// L1Bit returns L1 cache id's bit in its CMP's sharer mask: the L1Ds
// take the low ProcsPerCMP bits and the L1Is the next ProcsPerCMP.
func (g Geometry) L1Bit(id NodeID) uint64 { return 1 << uint(int(id)%g.nodesPerCMP()) }

// L1FromBit inverts L1Bit for the L1 caches of CMP c.
func (g Geometry) L1FromBit(c, bit int) NodeID { return NodeID(c*g.nodesPerCMP() + bit) }

// CMPOf reports which CMP an endpoint belongs to.
func (g Geometry) CMPOf(id NodeID) int { return int(id) / g.nodesPerCMP() }

// KindOf classifies an endpoint.
func (g Geometry) KindOf(id NodeID) Kind {
	off := int(id) % g.nodesPerCMP()
	switch {
	case off < g.ProcsPerCMP:
		return L1D
	case off < 2*g.ProcsPerCMP:
		return L1I
	case off < 2*g.ProcsPerCMP+g.L2Banks:
		return L2
	default:
		return Mem
	}
}

// IsCache reports whether id is a cache (anything but a memory
// controller).
func (g Geometry) IsCache(id NodeID) bool { return g.KindOf(id) != Mem }

// Bank returns the index of the L2 bank (within any CMP) that serves
// block b. The low-order block-address bits interleave across the
// banks and the next bits across the CMP homes (HomeMem), spreading
// consecutive blocks as real systems do.
func (g Geometry) Bank(b mem.Block) int { return int(uint64(b) % uint64(g.L2Banks)) }

// L2BankFor returns the L2 bank on CMP c that serves block b.
func (g Geometry) L2BankFor(c int, b mem.Block) NodeID {
	return g.L2Node(c, g.Bank(b))
}

// HomeMem returns the home memory controller for block b.
func (g Geometry) HomeMem(b mem.Block) NodeID {
	return g.MemNode(int(uint64(b) / uint64(g.L2Banks) % uint64(g.CMPs)))
}

// AllNodes lists every endpoint.
func (g Geometry) AllNodes() []NodeID {
	out := make([]NodeID, g.NumNodes())
	for i := range out {
		out[i] = NodeID(i)
	}
	return out
}

// AllCaches lists every cache endpoint in the system.
func (g Geometry) AllCaches() []NodeID {
	var out []NodeID
	for _, id := range g.AllNodes() {
		if g.IsCache(id) {
			out = append(out, id)
		}
	}
	return out
}

// L1sInCMP lists the L1 caches (data and instruction) on CMP c.
func (g Geometry) L1sInCMP(c int) []NodeID {
	var out []NodeID
	for p := 0; p < g.ProcsPerCMP; p++ {
		out = append(out, g.L1DNode(c, p), g.L1INode(c, p))
	}
	return out
}

// Mems lists every memory controller.
func (g Geometry) Mems() []NodeID {
	out := make([]NodeID, g.CMPs)
	for c := 0; c < g.CMPs; c++ {
		out[c] = g.MemNode(c)
	}
	return out
}

// CachesPerCMP reports C, the number of caches on one CMP node; the
// TokenCMP read-response optimization returns C tokens when possible.
func (g Geometry) CachesPerCMP() int { return 2*g.ProcsPerCMP + g.L2Banks }

// GlobalProc returns the global processor index of processor p on CMP c.
// It is also the processor's fixed persistent-request priority (lower
// wins), so priorities within a CMP are consecutive and contended
// handoffs favor on-chip neighbors (§3.2).
func (g Geometry) GlobalProc(c, p int) int { return c*g.ProcsPerCMP + p }

// ProcOf inverts GlobalProc.
func (g Geometry) ProcOf(global int) (cmp, proc int) {
	return global / g.ProcsPerCMP, global % g.ProcsPerCMP
}
