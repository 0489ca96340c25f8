package blocktab

import "tokencmp/internal/mem"

// Queues keeps a FIFO of T values per block: a Table of list ends over
// one node slab with a free list, so a steady stream of pushes and pops
// allocates nothing. A block whose queue empties leaves the table. The
// zero Queues is empty and ready to use.
type Queues[T any] struct {
	ends  Table[ends]
	nodes []node[T]
	free  int32 // first free node plus one; 0 when none
	n     int   // queued values
}

// ends is one block's list: its first and last nodes, plus one.
type ends struct{ head, tail int32 }

type node[T any] struct {
	v    T
	next int32 // next node plus one; 0 ends the list
}

// Push appends v to b's queue.
func (q *Queues[T]) Push(b mem.Block, v T) {
	var i int32
	if q.free != 0 {
		i = q.free - 1
		q.free = q.nodes[i].next
		q.nodes[i] = node[T]{v: v}
	} else {
		i = int32(len(q.nodes))
		q.nodes = append(q.nodes, node[T]{v: v})
	}
	e := q.ends.At(b)
	if e.tail != 0 {
		q.nodes[e.tail-1].next = i + 1
	} else {
		e.head = i + 1
	}
	e.tail = i + 1
	q.n++
}

// Pop removes and returns the oldest value queued for b, if any.
func (q *Queues[T]) Pop(b mem.Block) (T, bool) {
	e := q.ends.Peek(b)
	if e == nil {
		var zero T
		return zero, false
	}
	i := e.head - 1
	v := q.nodes[i].v
	e.head = q.nodes[i].next
	if e.head == 0 {
		q.ends.Delete(b)
	}
	q.release(i)
	return v, true
}

// Remove deletes the oldest value queued for b that match accepts and
// reports whether there was one.
func (q *Queues[T]) Remove(b mem.Block, match func(v *T) bool) bool {
	e := q.ends.Peek(b)
	if e == nil {
		return false
	}
	prev := int32(0)
	for cur := e.head; cur != 0; prev, cur = cur, q.nodes[cur-1].next {
		if !match(&q.nodes[cur-1].v) {
			continue
		}
		next := q.nodes[cur-1].next
		if prev == 0 {
			e.head = next
		} else {
			q.nodes[prev-1].next = next
		}
		if e.tail == cur {
			e.tail = prev
		}
		if e.head == 0 {
			q.ends.Delete(b)
		}
		q.release(cur - 1)
		return true
	}
	return false
}

// release returns node i to the free list, zeroing its value.
func (q *Queues[T]) release(i int32) {
	q.nodes[i] = node[T]{next: q.free}
	q.free = i + 1
	q.n--
}

// Len reports the number of values queued across all blocks.
func (q *Queues[T]) Len() int { return q.n }
