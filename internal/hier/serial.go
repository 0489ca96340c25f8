package hier

import (
	"tokencmp/internal/blocktab"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
)

// Serializer orders the work on each block at one controller: a busy
// record, held by value, for each block with a transaction in progress,
// and a FIFO of the messages deferred behind it. Deferred messages are
// copied by value, so a delivered message never outlives its handler. A
// block's entries are deleted when they empty. The zero Serializer is
// ready to use; each caller replays deferred messages with its own
// timing.
type Serializer[T any] struct {
	busy  blocktab.Table[T]
	queue blocktab.Queues[network.Message]
}

// Busy returns b's busy record, or nil if b is idle. The record stays
// at its address until End.
func (s *Serializer[T]) Busy(b mem.Block) *T { return s.busy.Peek(b) }

// Start marks b busy with record t and returns the stored record.
func (s *Serializer[T]) Start(b mem.Block, t T) *T {
	p := s.busy.At(b)
	*p = t
	return p
}

// End marks b idle.
func (s *Serializer[T]) End(b mem.Block) { s.busy.Delete(b) }

// Defer queues a copy of m behind m.Block's busy record.
func (s *Serializer[T]) Defer(m *network.Message) { s.queue.Push(m.Block, *m) }

// Pop removes and returns b's oldest deferred message, if any.
func (s *Serializer[T]) Pop(b mem.Block) (network.Message, bool) { return s.queue.Pop(b) }
