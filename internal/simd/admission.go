package simd

import (
	"context"
	"sync/atomic"
	"time"
)

// Class buckets a request by its declared cost so one expensive
// family cannot starve the cheap one. Classification is a pure
// function of the request (see Request.Class), so it is stable across
// retries and replicas.
type Class int

const (
	ClassLight Class = iota // small interactive runs
	ClassHeavy              // model-check-scale sweeps and big budgets
	numClasses
)

// String names the class for metrics and headers.
func (c Class) String() string {
	if c == ClassHeavy {
		return "heavy"
	}
	return "light"
}

// admitToken records which pool a slot came from so release returns
// it to the right place.
type admitToken struct {
	pool chan struct{}
}

// admission is the two-tier slot allocator: each class owns dedicated
// slots nobody else can take, and a shared reserve either class may
// borrow when its own pool is full. A flood of heavy requests can at
// worst consume the heavy slots plus the whole reserve; the light
// class always keeps its dedicated slots, which is the starvation
// bound the tests pin. Queues are per-class and bounded, so shedding
// in one class never delays the other.
type admission struct {
	slots   [numClasses]chan struct{}
	reserve chan struct{}
	queue   [numClasses]atomic.Int64
	depth   [numClasses]int
	metrics *Metrics
}

// newAdmission splits slots across the classes (see splitSlots) and
// gives each class half of queue (at least one) as its waiting room.
// metrics may be nil.
func newAdmission(slots, queue int, metrics *Metrics) *admission {
	if metrics == nil {
		metrics = &Metrics{}
	}
	light, heavy, reserve := splitSlots(slots)
	a := &admission{metrics: metrics}
	a.slots[ClassLight] = make(chan struct{}, light)
	a.slots[ClassHeavy] = make(chan struct{}, heavy)
	a.reserve = make(chan struct{}, reserve)
	a.depth[ClassLight] = max(queue/2, 1)
	a.depth[ClassHeavy] = max(queue/2, 1)
	return a
}

// splitSlots derives the class pools from an aggregate slot count:
// a quarter (at least one) becomes the shared reserve, the rest is
// split between the classes with light taking the remainder. Tiny
// totals (< 3) go entirely to the reserve: with no room to dedicate,
// the pools degenerate to one shared semaphore.
func splitSlots(total int) (light, heavy, reserve int) {
	if total < 3 {
		return 0, 0, total
	}
	reserve = max(total/4, 1)
	heavy = (total - reserve) / 2
	light = total - reserve - heavy
	return light, heavy, reserve
}

// capacity counts the slots class c can ever hold: its dedicated pool
// plus the shared reserve.
func (a *admission) capacity(c Class) int { return cap(a.slots[c]) + cap(a.reserve) }

// tryAcquire takes a slot without blocking: the class's own pool
// first, then the shared reserve.
func (a *admission) tryAcquire(c Class) (admitToken, bool) {
	select {
	case a.slots[c] <- struct{}{}:
		return admitToken{pool: a.slots[c]}, true
	default:
	}
	select {
	case a.reserve <- struct{}{}:
		return admitToken{pool: a.reserve}, true
	default:
	}
	return admitToken{}, false
}

// acquire takes a slot for class c, queueing (bounded) when both its
// pool and the reserve are full. It returns shed=true when the
// class's queue is already at depth — the caller turns that into a
// 429 whose Retry-After scales with the queue it was shed from.
func (a *admission) acquire(ctx context.Context, c Class) (tok admitToken, shed bool, err error) {
	if tok, ok := a.tryAcquire(c); ok {
		a.metrics.ClassAdmitted[c].Add(1)
		return tok, false, nil
	}
	if a.queue[c].Add(1) > int64(a.depth[c]) {
		a.queue[c].Add(-1)
		a.metrics.Shed.Add(1)
		a.metrics.ClassShed[c].Add(1)
		return admitToken{}, true, nil
	}
	a.metrics.Queued.Add(1)
	defer func() {
		a.queue[c].Add(-1)
		a.metrics.Queued.Add(-1)
	}()
	select {
	case a.slots[c] <- struct{}{}:
		a.metrics.ClassAdmitted[c].Add(1)
		return admitToken{pool: a.slots[c]}, false, nil
	case a.reserve <- struct{}{}:
		a.metrics.ClassAdmitted[c].Add(1)
		return admitToken{pool: a.reserve}, false, nil
	case <-ctx.Done():
		return admitToken{}, false, ctx.Err()
	}
}

// release returns the slot to the pool it was borrowed from.
func (a *admission) release(tok admitToken) {
	<-tok.pool
}

// queued reports the number of class-c requests waiting for a slot.
func (a *admission) queued(c Class) int64 { return a.queue[c].Load() }

// retryAfterSeconds scales a shed client's backoff hint with the
// pressure it was shed under: one default request budget as the base,
// multiplied by how many budgets' worth of work is already queued
// ahead of it (queued waiters over serving slots). Bounds are pinned
// by TestRetryAfterBounds: never below 1s, never above
// retryAfterCapSeconds, and nondecreasing in queue depth.
func retryAfterSeconds(budget time.Duration, queued int64, slots int) int {
	base := float64(budget) / float64(time.Second)
	if base < 1 {
		base = 1
	}
	if slots < 1 {
		slots = 1
	}
	if queued < 0 {
		queued = 0
	}
	s := int(base * (1 + float64(queued)/float64(slots)))
	if s < 1 {
		s = 1
	}
	if s > retryAfterCapSeconds {
		s = retryAfterCapSeconds
	}
	return s
}

// retryAfterCapSeconds caps the backoff hint: past five minutes the
// client learns nothing more from a bigger number.
const retryAfterCapSeconds = 300
