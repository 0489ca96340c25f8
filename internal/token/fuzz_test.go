package token

import (
	"testing"

	"tokencmp/internal/mem"
	"tokencmp/internal/topo"
)

// refDistributed is the plain reference model of DistributedTable: one
// entry per processor, every lookup a scan in processor order.
type refDistributed []Entry

func (r refDistributed) active(b mem.Block) (Entry, bool) {
	for _, e := range r {
		if e.Valid && e.Block == b {
			return e, true
		}
	}
	return Entry{}, false
}

func (r refDistributed) hasMarked(b mem.Block) bool {
	for _, e := range r {
		if e.Valid && e.Marked && e.Block == b {
			return true
		}
	}
	return false
}

// fuzzBlocks is how many blocks the operations touch: few, so requests
// of different processors collide on one block.
const fuzzBlocks = 6

// FuzzPersistentTables runs random operation sequences on a
// DistributedTable and an ArbTable against plain reference models: a
// per-processor entry array scanned in processor order (the lowest
// processor wins a block) and a map from block to its one activated
// request. After every operation each block's active entry, each
// processor's entry and each block's marked state must match. The
// first byte sizes the distributed table at 1 to 256 processors, so
// sequences cross the 64-processor word boundary of its bitset;
// activations and deactivations of the arbiter table arrive in any
// order, as they may on the unordered interconnect.
func FuzzPersistentTables(f *testing.F) {
	// Priority: processors 3, 1, 2 request block 0; deactivating the
	// winner promotes the next lowest.
	f.Add([]byte{3, 0, 3, 0, 0, 1, 0, 0, 2, 0, 1, 1, 0})
	// More than 64 processors: 130, 70 and 5 request block 1, the wave
	// is marked, and the requests deactivate lowest first.
	f.Add([]byte{199, 0, 130, 1, 0, 70, 1, 0, 5, 1, 2, 0, 1, 1, 5, 0, 1, 70, 0, 1, 130, 0})
	// Arbiter reordering: a deactivation overtakes its activation, and
	// a stale deactivation must not clear a newer activation.
	f.Add([]byte{15, 4, 2, 3, 3, 2, 3, 4, 2, 3, 3, 3, 5, 3, 4, 5, 4, 3, 5, 3, 2, 3, 4, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		procs := 1 + int(data[0])
		dt := NewDistributedTable(procs)
		dref := make(refDistributed, procs)
		var at ArbTable
		aref := map[mem.Block]Entry{}
		for k := 1; k+2 < len(data); k += 3 {
			op, proc := data[k]%5, int(data[k+1])%procs
			b := mem.Block(data[k+2] % fuzzBlocks)
			kind := ReqKind(data[k+2] / fuzzBlocks % 2)
			dest := topo.NodeID(data[k+2] / 16)
			switch op {
			case 0:
				dt.Insert(proc, b, kind, dest)
				dref[proc] = Entry{Valid: true, Block: b, Kind: kind, Dest: dest, Proc: proc}
			case 1:
				gotB, gotOK := dt.Deactivate(proc)
				if want := dref[proc]; gotOK != want.Valid || gotOK && gotB != want.Block {
					t.Fatalf("op %d: Deactivate(%d) = (%v, %v), want (%v, %v)", k, proc, gotB, gotOK, want.Block, want.Valid)
				}
				dref[proc] = Entry{}
			case 2:
				dt.MarkAllFor(b)
				for i := range dref {
					if dref[i].Valid && dref[i].Block == b {
						dref[i].Marked = true
					}
				}
			case 3:
				at.Activate(b, kind, dest, proc)
				aref[b] = Entry{Valid: true, Block: b, Kind: kind, Dest: dest, Proc: proc}
			case 4:
				at.Deactivate(b, proc)
				if e, ok := aref[b]; ok && e.Proc == proc {
					delete(aref, b)
				}
			}
			for b := mem.Block(0); b < fuzzBlocks; b++ {
				want, ok := dref.active(b)
				if got := dt.Active(b); (got != nil) != ok || ok && *got != want {
					t.Fatalf("op %d: distributed Active(%v) = %+v, want %+v (present %v)", k, b, got, want, ok)
				}
				if got, want := dt.HasMarked(b), dref.hasMarked(b); got != want {
					t.Fatalf("op %d: HasMarked(%v) = %v, want %v", k, b, got, want)
				}
				awant, aok := aref[b]
				if got := at.Active(b); (got != nil) != aok || aok && *got != awant {
					t.Fatalf("op %d: arbiter Active(%v) = %+v, want %+v (present %v)", k, b, got, awant, aok)
				}
			}
			for p, want := range dref {
				if got := find(&dt, p); (got != nil) != want.Valid || want.Valid && *got != want {
					t.Fatalf("op %d: Find(%d) = %+v, want %+v", k, p, got, want)
				}
			}
		}
	})
}
