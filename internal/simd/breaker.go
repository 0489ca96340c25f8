package simd

import (
	"sync"
	"time"
)

// breaker is the poison-input circuit breaker: a request key that
// keeps panicking the engine is negatively cached and answered 422
// immediately instead of being re-run at full cost forever. Because
// the simulator is deterministic in the cache key, a key that panicked
// once will panic every time — the retry budget (breakerPanics) exists
// only to absorb panics with environmental causes (OOM pressure,
// runtime faults) that a deterministic input cannot explain away.
//
// States per key, classic three-state breaker:
//
//	closed    — fewer than breakerPanics panics; requests run normally.
//	open      — breakerPanics consecutive panics; requests are
//	            rejected with 422 for breakerCooldown.
//	half-open — cooldown expired; exactly one probe request runs.
//	            A panic reopens immediately (count stays at
//	            breakerPanics), a success closes and forgets the key.
type breaker struct {
	metrics *Metrics
	now     func() time.Time // injected by tests

	mu      sync.Mutex
	entries map[string]*breakerEntry
	order   []string // insertion order, for bounded eviction
}

type breakerEntry struct {
	panics    int
	openUntil time.Time // zero while closed
	probing   bool      // a half-open probe is in flight
}

const (
	breakerPanics   = 3           // consecutive panics before a key opens
	breakerCooldown = time.Minute // how long an open key rejects
)

// breakerMaxKeys bounds the tracked-key map: a stream of distinct
// poison inputs must not grow daemon memory without limit. Beyond the
// bound the oldest tracked key is forgotten (it re-earns its state if
// it is still poisonous).
const breakerMaxKeys = 4096

func newBreaker(metrics *Metrics) *breaker {
	if metrics == nil {
		metrics = &Metrics{}
	}
	return &breaker{
		metrics: metrics,
		now:     time.Now,
		entries: make(map[string]*breakerEntry),
	}
}

// allow reports whether a run for key may start. When it returns
// false the key is open and retryAfter is the remaining cooldown
// (floored at one second) for the 422's Retry-After header.
func (b *breaker) allow(key string) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, tracked := b.entries[key]
	if !tracked || e.openUntil.IsZero() {
		return true, 0
	}
	if remaining := e.openUntil.Sub(b.now()); remaining > 0 {
		b.metrics.BreakerRejected.Add(1)
		if remaining < time.Second {
			remaining = time.Second
		}
		return false, remaining
	}
	// Cooldown passed: half-open. Exactly one probe runs; concurrent
	// requests for the key keep rejecting until the probe resolves.
	if e.probing {
		b.metrics.BreakerRejected.Add(1)
		return false, time.Second
	}
	e.probing = true
	return true, 0
}

// onPanic records an engine panic for key; reaching breakerPanics
// opens the breaker (or reopens it after a failed half-open probe).
func (b *breaker) onPanic(key string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[key]
	if e == nil {
		if len(b.entries) >= breakerMaxKeys {
			oldest := b.order[0]
			b.order = b.order[1:]
			delete(b.entries, oldest)
		}
		e = &breakerEntry{}
		b.entries[key] = e
		b.order = append(b.order, key)
	}
	e.probing = false
	e.panics++
	if e.panics >= breakerPanics {
		e.panics = breakerPanics // saturate: one more panic after half-open reopens
		if e.openUntil.IsZero() || !b.now().Before(e.openUntil) {
			b.metrics.BreakerOpen.Add(1)
		}
		e.openUntil = b.now().Add(breakerCooldown)
	}
}

// onSuccess clears key's record: a completed run proves the input is
// not poison (or no longer meets its environmental trigger).
func (b *breaker) onSuccess(key string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, tracked := b.entries[key]; !tracked {
		return
	}
	delete(b.entries, key)
	for i, k := range b.order {
		if k == key {
			b.order = append(b.order[:i], b.order[i+1:]...)
			break
		}
	}
}
