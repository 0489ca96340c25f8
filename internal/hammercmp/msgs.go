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

import "fmt"

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

func kindName(k int32) string {
	names := []string{"GetS", "GetM", "ProbeS", "ProbeM", "Ack", "Data",
		"MemData", "Done", "Put", "WbGrant", "WbData", "WbCancel"}
	if k >= 0 && int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Aux flag bits on probe responses and writeback messages.
const (
	auxShared = 1 << iota // responder held (or holds) a copy
	auxMigr               // migratory handoff: requester takes M even on a read
	auxExcl               // writeback of an M (not O) line
)
