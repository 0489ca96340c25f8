// Package mem defines physical addresses and cache-block geometry for
// the simulated M-CMP system. Which L2 bank serves a block and which
// CMP is its home is topo.Geometry's business.
package mem

import "fmt"

// Addr is a physical byte address.
type Addr uint64

// BlockBits is log2 of the cache block size (64-byte blocks, Table 3).
const BlockBits = 6

// BlockSize is the coherence granularity in bytes.
const BlockSize = 1 << BlockBits

// Block identifies a cache block (an address with the offset stripped).
type Block uint64

// BlockOf returns the block containing a.
func BlockOf(a Addr) Block { return Block(a >> BlockBits) }

// Addr returns the first byte address of block b.
func (b Block) Addr() Addr { return Addr(b) << BlockBits }

func (b Block) String() string { return fmt.Sprintf("blk%#x", uint64(b)) }
