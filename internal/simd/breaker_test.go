package simd

import (
	"fmt"
	"testing"
	"time"
)

// testBreaker builds a breaker with an injectable clock.
func testBreaker(m *Metrics) (*breaker, *time.Time) {
	b := newBreaker(m)
	clock := time.Unix(1_000_000, 0)
	b.now = func() time.Time { return clock }
	return b, &clock
}

// TestBreakerOpensAfterThreshold pins the core contract: K-1 panics
// still allow runs, the Kth opens the key, and an open key rejects
// with the cooldown as its hint while other keys stay unaffected.
func TestBreakerOpensAfterThreshold(t *testing.T) {
	m := &Metrics{}
	b, _ := testBreaker(m)
	for i := 0; i < breakerPanics-1; i++ {
		if ok, _ := b.allow("poison"); !ok {
			t.Fatalf("rejected after %d panics, threshold is %d", i, breakerPanics)
		}
		b.onPanic("poison")
	}
	if ok, _ := b.allow("poison"); !ok {
		t.Fatalf("rejected after %d panics, threshold is %d", breakerPanics-1, breakerPanics)
	}
	b.onPanic("poison")
	ok, retry := b.allow("poison")
	if ok {
		t.Fatalf("allowed after %d panics", breakerPanics)
	}
	if retry != breakerCooldown {
		t.Errorf("retryAfter = %v, want the %v cooldown", retry, breakerCooldown)
	}
	if m.BreakerOpen.Load() != 1 {
		t.Errorf("BreakerOpen = %d, want 1", m.BreakerOpen.Load())
	}
	if m.BreakerRejected.Load() != 1 {
		t.Errorf("BreakerRejected = %d, want 1", m.BreakerRejected.Load())
	}
	if ok, _ := b.allow("innocent"); !ok {
		t.Error("an unrelated key was rejected")
	}
}

// TestBreakerHalfOpenProbe advances past the cooldown and asserts
// exactly one probe runs: a concurrent request still rejects, a probe
// panic reopens immediately, and a probe success closes and forgets.
func TestBreakerHalfOpenProbe(t *testing.T) {
	m := &Metrics{}
	b, clock := testBreaker(m)
	for i := 0; i < breakerPanics; i++ {
		b.onPanic("k") // the last one opens
	}
	*clock = clock.Add(breakerCooldown + time.Second)
	if ok, _ := b.allow("k"); !ok {
		t.Fatal("probe not allowed after cooldown")
	}
	if ok, _ := b.allow("k"); ok {
		t.Fatal("second concurrent probe allowed")
	}
	// Probe panics: reopens at once (saturated count), no new probe
	// until another cooldown.
	b.onPanic("k")
	if ok, _ := b.allow("k"); ok {
		t.Fatal("allowed immediately after a failed probe")
	}
	if m.BreakerOpen.Load() != 2 {
		t.Errorf("BreakerOpen = %d, want 2 (initial + reopen)", m.BreakerOpen.Load())
	}
	// Next cooldown: the probe succeeds and the key is forgotten.
	*clock = clock.Add(breakerCooldown + time.Second)
	if ok, _ := b.allow("k"); !ok {
		t.Fatal("probe not allowed after second cooldown")
	}
	b.onSuccess("k")
	for i := 0; i < 3; i++ {
		if ok, _ := b.allow("k"); !ok {
			t.Fatal("key still tracked after a successful probe")
		}
	}
	if len(b.entries) != 0 {
		t.Errorf("entries = %d after success, want 0", len(b.entries))
	}
}

// TestBreakerSuccessResetsCount asserts sub-threshold panics are
// forgiven by one success — only consecutive failures open the key.
func TestBreakerSuccessResetsCount(t *testing.T) {
	b, _ := testBreaker(&Metrics{})
	for i := 0; i < breakerPanics-1; i++ {
		b.onPanic("k")
	}
	b.onSuccess("k")
	for i := 0; i < breakerPanics-1; i++ {
		b.onPanic("k")
	}
	if ok, _ := b.allow("k"); !ok {
		t.Fatalf("opened at %d consecutive panics after a reset, threshold is %d", breakerPanics-1, breakerPanics)
	}
}

// TestBreakerBoundedMemory floods the breaker with distinct poison
// keys and asserts the tracked set stays at its bound, evicting the
// oldest.
func TestBreakerBoundedMemory(t *testing.T) {
	b, _ := testBreaker(&Metrics{})
	for i := 0; i < breakerMaxKeys+100; i++ {
		for range breakerPanics {
			b.onPanic(fmt.Sprintf("key-%d", i))
		}
	}
	if len(b.entries) != breakerMaxKeys {
		t.Fatalf("entries = %d, want bound %d", len(b.entries), breakerMaxKeys)
	}
	if ok, _ := b.allow("key-0"); !ok {
		t.Error("oldest key still tracked; eviction should have forgotten it")
	}
	if ok, _ := b.allow(fmt.Sprintf("key-%d", breakerMaxKeys+99)); ok {
		t.Error("newest poisoned key not rejected")
	}
}
