package blocktab

import (
	"slices"
	"testing"

	"tokencmp/internal/mem"
)

// fuzzBlock maps a fuzz byte pair to a block: four regions 2^28 blocks
// apart, as the commercial workloads lay them out, with 64 blocks each,
// so operations revisit blocks and probe runs collide.
func fuzzBlock(hi, lo byte) mem.Block {
	return mem.Block(uint64(hi&3)<<28 | uint64(lo&63)*uint64(1+hi>>2))
}

// FuzzBlockTable runs random At/Insert/Peek/Delete/Each sequences on a
// Table, and Push/Pop/Remove sequences on Queues, against map
// references. Every held cell pointer must keep its block's value
// across growth of the index and slab and across deletes of other
// blocks.
func FuzzBlockTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 0, 2, 0, 0, 3, 0, 0})
	f.Add([]byte{0, 1, 2, 0, 1, 3, 0, 1, 4, 0, 1, 5, 2, 1, 3, 3, 0, 0, 1, 1, 4})
	f.Add([]byte{5, 0, 1, 5, 0, 2, 6, 0, 0, 5, 0, 3, 7, 0, 2, 6, 0, 0, 6, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab Table[uint64]
		ref := map[mem.Block]uint64{}
		held := map[mem.Block]*uint64{}
		var qs Queues[uint64]
		qref := map[mem.Block][]uint64{}
		qn := 0
		for k := 0; k+2 < len(ops); k += 3 {
			op, b, v := ops[k]%8, fuzzBlock(ops[k+1], ops[k+2]), uint64(ops[k+2])<<8|uint64(k)
			switch op {
			case 0: // At, then write through the cell
				p := tab.At(b)
				if want, ok := ref[b]; ok && *p != want {
					t.Fatalf("At(%v) = %d, want %d", b, *p, want)
				} else if !ok && *p != 0 {
					t.Fatalf("At(%v) of a new block = %d, want 0", b, *p)
				}
				*p = v
				ref[b] = v
				held[b] = p
			case 1: // Insert reports freshness
				p, fresh := tab.Insert(b)
				if _, ok := ref[b]; fresh == ok {
					t.Fatalf("Insert(%v) fresh = %v with block present = %v", b, fresh, ok)
				}
				if fresh {
					ref[b] = 0
				}
				held[b] = p
			case 2: // Peek
				p := tab.Peek(b)
				want, ok := ref[b]
				if (p != nil) != ok || ok && *p != want {
					t.Fatalf("Peek(%v) = %v, want %d (present %v)", b, p, want, ok)
				}
				if ok && p != held[b] {
					t.Fatalf("Peek(%v) moved the cell", b)
				}
			case 3: // Delete
				tab.Delete(b)
				delete(ref, b)
				delete(held, b)
			case 4: // Each visits exactly the present blocks, ascending
				var got []mem.Block
				tab.Each(func(eb mem.Block, p *uint64) {
					if want := ref[eb]; *p != want {
						t.Fatalf("Each(%v) = %d, want %d", eb, *p, want)
					}
					got = append(got, eb)
				})
				want := make([]mem.Block, 0, len(ref))
				for rb := range ref {
					want = append(want, rb)
				}
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("Each visited %v, want %v", got, want)
				}
			case 5: // Queues.Push
				qs.Push(b, v)
				qref[b] = append(qref[b], v)
				qn++
			case 6: // Queues.Pop
				got, ok := qs.Pop(b)
				q := qref[b]
				if ok != (len(q) > 0) || ok && got != q[0] {
					t.Fatalf("Pop(%v) = %d, %v; want queue %v", b, got, ok, q)
				}
				if ok {
					qref[b] = q[1:]
					qn--
				}
			case 7: // Queues.Remove of the first value with v's low byte
				match := func(x *uint64) bool { return *x&0xff == v&0xff }
				got := qs.Remove(b, match)
				q := qref[b]
				i := slices.IndexFunc(q, func(x uint64) bool { return match(&x) })
				if got != (i >= 0) {
					t.Fatalf("Remove(%v) = %v, want %v (queue %v)", b, got, i >= 0, q)
				}
				if i >= 0 {
					qref[b] = slices.Delete(slices.Clone(q), i, i+1)
					qn--
				}
			}
			if tab.Len() != len(ref) {
				t.Fatalf("Len = %d, want %d", tab.Len(), len(ref))
			}
			if qs.Len() != qn {
				t.Fatalf("Queues.Len = %d, want %d", qs.Len(), qn)
			}
			for hb, p := range held {
				if *p != ref[hb] {
					t.Fatalf("held cell of %v = %d, want %d after op %d", hb, *p, ref[hb], k/3)
				}
			}
		}
		// Drain every queue: FIFO order must match the reference.
		for b, q := range qref {
			for _, want := range q {
				if got, ok := qs.Pop(b); !ok || got != want {
					t.Fatalf("drain Pop(%v) = %d, %v; want %d", b, got, ok, want)
				}
			}
			if _, ok := qs.Pop(b); ok {
				t.Fatalf("queue of %v longer than the reference", b)
			}
		}
		if qs.Len() != 0 || qs.ends.Len() != 0 {
			t.Fatalf("drained Queues holds %d values in %d blocks", qs.Len(), qs.ends.Len())
		}
	})
}
