package hier

import (
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
)

// Serializer orders the work on each block at one controller: a busy
// record for each block with a transaction in progress, and a FIFO of
// the messages deferred behind it. Deferred messages are copied by
// value, so a delivered message never outlives its handler. A block's
// entries are deleted when they empty. The zero Serializer is ready to
// use; each caller replays deferred messages with its own timing.
type Serializer[T any] struct {
	busy  map[mem.Block]T
	queue map[mem.Block][]network.Message
}

// Busy returns the busy record of b, if b is busy.
func (s *Serializer[T]) Busy(b mem.Block) (T, bool) {
	t, ok := s.busy[b]
	return t, ok
}

// Start marks b busy with record t.
func (s *Serializer[T]) Start(b mem.Block, t T) {
	if s.busy == nil {
		s.busy = make(map[mem.Block]T)
	}
	s.busy[b] = t
}

// End marks b idle.
func (s *Serializer[T]) End(b mem.Block) { delete(s.busy, b) }

// Defer queues a copy of m behind m.Block's busy record.
func (s *Serializer[T]) Defer(m *network.Message) {
	if s.queue == nil {
		s.queue = make(map[mem.Block][]network.Message)
	}
	s.queue[m.Block] = append(s.queue[m.Block], *m)
}

// Pop removes and returns b's oldest deferred message, if any.
func (s *Serializer[T]) Pop(b mem.Block) (network.Message, bool) {
	q := s.queue[b]
	if len(q) == 0 {
		return network.Message{}, false
	}
	if len(q) == 1 {
		delete(s.queue, b)
	} else {
		s.queue[b] = q[1:]
	}
	return q[0], true
}

// Idle reports whether no block is busy or has deferred messages.
func (s *Serializer[T]) Idle() bool { return len(s.busy) == 0 && len(s.queue) == 0 }
