package sim

import (
	"context"
	"math/bits"
	"runtime"
)

// event is one scheduled callback, call(ctx, arg). Pointer-shaped ctx
// and arg values store into the interface words without allocating, so
// the network can schedule a delivery without materializing a closure.
// Events live in the engine's slot slab and link into their bucket's
// list through next, a slab index (0 ends a list).
type event struct {
	at   Time
	call func(ctx, arg any)
	ctx  any
	arg  any
	next int32
}

// Timing-wheel geometry. A bucket spans 1<<bucketShift ps = 128 ps, just
// over the 125 ps grid the protocol latencies fall on, so a bucket
// rarely holds two distinct times; wheelSize buckets give a 262 ns
// horizon, past the ≤ 80 ns delays that carry 99% of HammerCMP's events
// on a scaled OLTP run. Timeouts, think times and backoff beyond the
// horizon wait in the overflow heap.
const (
	bucketShift = 7
	wheelSize   = 2048
	wheelMask   = wheelSize - 1
	bitmapWords = wheelSize / 64
)

// overflowKey orders one far-future event in the overflow heap by
// (time, sequence); slot indexes its payload in the slab.
type overflowKey struct {
	at   Time
	seq  uint64
	slot int32
}

// eventQueue is a timing wheel with exact (time, sequence) order.
//
// Bucket b = at>>bucketShift lives at wheel index b&wheelMask while
// cursor <= b < cursor+wheelSize, where cursor is the bucket of the
// current time; later events wait in the overflow heap and move into
// the wheel when the cursor's advance brings their bucket in range, so
// a bucket entering the range is empty and overflow events reach it
// first, in heap order. Each bucket is a list sorted by time: an insert
// appends at the tail when its time is no earlier than the tail's and
// otherwise walks to its place after every equal time, and since every
// later insert carries a larger sequence number the list order is the
// exact (time, sequence) order. A bitmap marks the non-empty buckets.
// Lists link slots of one slab with a free list, so once the slab has
// grown to the run's peak depth scheduling allocates nothing.
type eventQueue struct {
	head, tail [wheelSize]int32
	bitmap     [bitmapWords]uint64
	summary    uint32 // bit w set iff bitmap[w] != 0
	cursor     Time   // absolute bucket number of the current time
	inWheel    int
	slab       []event // slab[0] is the nil slot
	free       int32
	overflow   []overflowKey
	seq        uint64
}

func (q *eventQueue) len() int { return q.inWheel + len(q.overflow) }

// push queues call(ctx, arg) at time at, which must not precede the
// current time.
func (q *eventQueue) push(at Time, call func(ctx, arg any), ctx, arg any) {
	s := q.free
	if s != 0 {
		q.free = q.slab[s].next
	} else {
		if len(q.slab) == 0 {
			q.slab = append(q.slab, event{})
		}
		s = int32(len(q.slab))
		q.slab = append(q.slab, event{})
	}
	// Field by field: a composite literal is built on the stack and
	// block-copied, which stalls on store forwarding.
	ev := &q.slab[s]
	ev.at, ev.call, ev.ctx, ev.arg, ev.next = at, call, ctx, arg, 0
	if at>>bucketShift >= q.cursor+wheelSize {
		q.seq++
		q.pushOverflow(overflowKey{at: at, seq: q.seq, slot: s})
		return
	}
	q.insert(s)
}

// insert links slot s into its wheel bucket after every event whose time
// is no later than its own.
func (q *eventQueue) insert(s int32) {
	q.inWheel++
	at := q.slab[s].at
	i := int(at>>bucketShift) & wheelMask
	t := q.tail[i]
	switch {
	case t == 0:
		q.head[i], q.tail[i] = s, s
		q.bitmap[i>>6] |= 1 << (i & 63)
		q.summary |= 1 << (i >> 6)
	case q.slab[t].at <= at:
		q.slab[t].next = s
		q.tail[i] = s
	default:
		p := q.head[i]
		if q.slab[p].at > at {
			q.slab[s].next = p
			q.head[i] = s
			return
		}
		for n := q.slab[p].next; q.slab[n].at <= at; n = q.slab[p].next {
			p = n
		}
		q.slab[s].next = q.slab[p].next
		q.slab[p].next = s
	}
}

// pop unlinks the earliest event and returns its slot, which the caller
// hands back with release once it has read the event. The queue must be
// non-empty.
func (q *eventQueue) pop() int32 {
	if q.inWheel == 0 {
		q.advance(q.overflow[0].at >> bucketShift)
	}
	i := q.nextBucket()
	if d := Time((i - int(q.cursor)) & wheelMask); d != 0 {
		q.advance(q.cursor + d)
	}
	s := q.head[i]
	next := q.slab[s].next
	q.head[i] = next
	if next == 0 {
		q.tail[i] = 0
		q.bitmap[i>>6] &^= 1 << (i & 63)
		if q.bitmap[i>>6] == 0 {
			q.summary &^= 1 << (i >> 6)
		}
	}
	q.inWheel--
	return s
}

// release returns slot s to the free list. It leaves call, ctx and arg
// in place: clearing them would pay a write barrier per event while the
// GC marks, and a freed slot can only still point at a package-level
// thunk, a controller, a pooled message or a pooled payload, which the
// machine keeps alive anyway. The next push overwrites them.
func (q *eventQueue) release(s int32) {
	q.slab[s].next = q.free
	q.free = s
}

// nextBucket returns the wheel index of the first non-empty bucket at or
// after the cursor, wrapping around the wheel. The wheel must be
// non-empty.
func (q *eventQueue) nextBucket() int {
	c := int(q.cursor) & wheelMask
	w := c >> 6
	if m := q.bitmap[w] >> (c & 63); m != 0 {
		return c + bits.TrailingZeros64(m)
	}
	// Later words, then wrap to the words before (and including) w. A
	// shift by the full width (w = 31) yields 0.
	later := q.summary >> (w + 1) << (w + 1)
	if later == 0 {
		later = q.summary
	}
	w = bits.TrailingZeros32(later)
	return w<<6 + bits.TrailingZeros64(q.bitmap[w])
}

// advance moves the cursor to bucket c and moves every overflow event
// whose bucket the wheel now covers into it.
func (q *eventQueue) advance(c Time) {
	q.cursor = c
	for len(q.overflow) > 0 && q.overflow[0].at>>bucketShift < c+wheelSize {
		q.insert(q.popOverflow())
	}
}

func (q *eventQueue) pushOverflow(k overflowKey) {
	h := append(q.overflow, k)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !k.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
	q.overflow = h
}

func (q *eventQueue) popOverflow() int32 {
	h := q.overflow
	top := h[0].slot
	n := len(h) - 1
	k := h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(k) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = k
	}
	q.overflow = h
	return top
}

func (a overflowKey) less(b overflowKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// CancelCheckEvery is the amortized polling interval: Run and RunUntil
// yield the processor and poll the installed context (see SetContext)
// once per this many fired events, so after the context is cancelled
// the engine stops within at most CancelCheckEvery further events — the
// documented cancellation bound. A power of two keeps the poll gate a
// single AND.
const CancelCheckEvery = 1024

// Engine is a deterministic discrete-event scheduler.
// The zero value is ready to use.
type Engine struct {
	pq  eventQueue
	now Time
	// ctx is the cancellation source (nil when the engine cannot be
	// cancelled — the common case, and the zero-overhead one).
	ctx         context.Context
	interrupted bool
	// Executed counts events that have fired; useful as a progress and
	// live-lock guard in tests.
	Executed uint64
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// SetContext installs ctx as the engine's cancellation source: Run and
// RunUntil poll it once every CancelCheckEvery events and stop early
// when it is cancelled, so a timed-out or abandoned run releases its
// core within a bounded number of events. A nil context — or one that
// can never be cancelled, like context.Background() — removes the
// source entirely; uncancelled runs execute the exact same event
// sequence either way, so installing a live context never perturbs a
// deterministic result (pinned by the golden-figures tests).
func (e *Engine) SetContext(ctx context.Context) {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	e.ctx = ctx
	e.interrupted = false
}

// Err returns the installed context's error if the most recent Run or
// RunUntil stopped because that context was cancelled, nil otherwise.
func (e *Engine) Err() error {
	if !e.interrupted {
		return nil
	}
	return e.ctx.Err()
}

// poll is the amortized check shared by Run and RunUntil, made once
// every CancelCheckEvery executed events. It yields the processor, so
// a garbage collector's mark worker waiting to run gets in within about
// 100 µs instead of at the 10 ms preemption tick: while a mark phase
// stays open every pointer store in the event queue pays a write
// barrier. It then reports true, and latches the interruption that Err
// reports, when the installed context has been cancelled.
func (e *Engine) poll() bool {
	if e.Executed%CancelCheckEvery != 0 {
		return false
	}
	runtime.Gosched()
	if e.ctx == nil || e.ctx.Err() == nil {
		return false
	}
	e.interrupted = true
	return true
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// ScheduleCall runs call(ctx, arg) after delay d (>= 0; a negative
// delay clamps to 0). Events scheduled for the same instant fire in the
// order they were scheduled. A package-level call function plus
// pointer-shaped ctx and arg schedules without any heap allocation.
func (e *Engine) ScheduleCall(d Time, call func(ctx, arg any), ctx, arg any) {
	if d < 0 {
		d = 0
	}
	e.pq.push(e.now+d, call, ctx, arg)
}

// ScheduleCallAt is ScheduleCall at absolute time t (clamped to now).
func (e *Engine) ScheduleCallAt(t Time, call func(ctx, arg any), ctx, arg any) {
	if t < e.now {
		t = e.now
	}
	e.pq.push(t, call, ctx, arg)
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.pq.len() }

// Step fires the next event, if any, and reports whether one fired.
func (e *Engine) Step() bool {
	if e.pq.len() == 0 {
		return false
	}
	s := e.pq.pop()
	ev := &e.pq.slab[s]
	e.now = ev.at
	call, ctx, arg := ev.call, ev.ctx, ev.arg
	e.pq.release(s)
	e.Executed++
	call(ctx, arg)
	return true
}

// Run fires events until the queue is empty, the event-count limit is
// exceeded (limit <= 0 means no limit), or the installed context is
// cancelled (see SetContext). It yields the processor every
// CancelCheckEvery events (see poll). It returns the final simulated
// time.
func (e *Engine) Run(limit uint64) Time {
	e.interrupted = false
	start := e.Executed
	for e.Step() {
		if limit > 0 && e.Executed-start >= limit {
			break
		}
		if e.poll() {
			break
		}
	}
	return e.now
}

// RunUntil fires events until cond() is true (checked after every event),
// the queue drains, the event-count limit is exceeded, or the installed
// context is cancelled (distinguish the last case with Err). It
// yields as Run does and reports whether cond was satisfied.
func (e *Engine) RunUntil(cond func() bool, limit uint64) bool {
	e.interrupted = false
	if cond() {
		return true
	}
	start := e.Executed
	for e.Step() {
		if cond() {
			return true
		}
		if limit > 0 && e.Executed-start >= limit {
			return false
		}
		if e.poll() {
			return false
		}
	}
	return cond()
}
