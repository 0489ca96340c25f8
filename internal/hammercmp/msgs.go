// Package hammercmp implements HammerCMP: a broadcast-based MOESI
// coherence protocol in the style of AMD's Hammer, added as a third
// real contender next to DirectoryCMP and the TokenCMP variants. It
// keeps no directory state and no tokens: an L1 miss sends its request
// to the block's home memory controller, which serializes requests
// per block and broadcasts a probe to every cache in the system while
// speculatively reading DRAM. Every probed cache answers the requester
// directly — a data response if it owns the block, an acknowledgment
// otherwise — and the requester completes once it has collected one
// response per cache plus the memory response, preferring cache data
// over the (possibly stale) speculative memory data. A final
// source-done message releases the home's per-block serialization.
//
// The protocol trades interconnect bandwidth for latency: it avoids
// DirectoryCMP's inter-CMP directory lookup (80 ns in DRAM) entirely,
// but every miss costs ~2·(caches−1) messages, most of them crossing
// the global interconnect. L2 banks participate as on-chip victim
// caches: an L1 evicting an owned line writes it back to its local L2
// bank (three-phase, so in-flight data is always probeable), and L2
// evictions write back to the home memory controller the same way.
package hammercmp

import (
	"tokencmp/internal/network"
	"tokencmp/internal/stats"
)

// Message kinds.
const (
	// kGetS / kGetM carry an L1's read / write request to the block's
	// home memory controller.
	kGetS = iota
	kGetM
	// kProbeS / kProbeM are the home's broadcast probes to every cache
	// except the requester. Requestor names the original L1.
	kProbeS
	kProbeM
	// kAck answers a probe without data; Aux carries the shared flag.
	kAck
	// kData answers a probe with data; Aux carries the migratory flag.
	kData
	// kMemData is the home's speculative DRAM response to the requester.
	kMemData
	// kDone is the requester's source-done, releasing the home's
	// per-block serialization.
	kDone
	// kPut / kWbGrant / kWbData / kWbCancel implement three-phase
	// writebacks (L1 → local L2 bank, and L2 bank → home memory). Aux
	// on kPut/kWbData carries the exclusive flag (the evicted line was
	// M rather than O).
	kPut
	kWbGrant
	kWbData
	kWbCancel
)

// kinds is the protocol's kind table (installed on the network by
// NewSystem): each kind's name and Figure 7 class. A writeback's data
// counts as Writeback Data. The protocol has no timeout or retry path,
// so every kind is protected from injected faults, and no kind is
// prompt: every controller acts only after its access latency.
var kinds = network.Kinds{
	kGetS:     {Name: "GetS", Class: stats.Request},
	kGetM:     {Name: "GetM", Class: stats.Request},
	kProbeS:   {Name: "ProbeS", Class: stats.Request},
	kProbeM:   {Name: "ProbeM", Class: stats.Request},
	kAck:      {Name: "Ack", Class: stats.InvFwdAckTokens},
	kData:     {Name: "Data", Class: stats.ResponseData},
	kMemData:  {Name: "MemData", Class: stats.ResponseData},
	kDone:     {Name: "Done", Class: stats.Unblock},
	kPut:      {Name: "Put", Class: stats.WritebackControl},
	kWbGrant:  {Name: "WbGrant", Class: stats.WritebackControl},
	kWbData:   {Name: "WbData", Class: stats.WritebackControl},
	kWbCancel: {Name: "WbCancel", Class: stats.WritebackControl},
}

// Aux flag bits on probe responses and writeback messages.
const (
	auxShared = 1 << iota // responder held (or holds) a copy
	auxMigr               // migratory handoff: requester takes M even on a read
	auxExcl               // writeback of an M (not O) line
)
