package simd

import (
	"context"
	"testing"
	"time"
)

// TestRequestClassification pins the cost split: the default request
// is light, paper-scale sweeps are heavy, and the classification is a
// pure function of the normalized request.
func TestRequestClassification(t *testing.T) {
	light := Request{}
	light.Normalize() // 1 seed x 64 acquires x 16 procs ≈ 1k ops
	if got := light.Class(); got != ClassLight {
		t.Errorf("default request classed %v, want light (ops=%d)", got, light.EstimatedOps())
	}
	heavy := Request{Workload: "locking", Acquires: 5000, Seeds: 8}
	heavy.Normalize()
	if got := heavy.Class(); got != ClassHeavy {
		t.Errorf("8x5000-acquire sweep classed %v, want heavy (ops=%d)", got, heavy.EstimatedOps())
	}
	// Check doubles the estimate: a request just under the line tips over.
	edge := Request{Workload: "locking", Acquires: 4000, Seeds: 1} // 4000*16 = 64k
	edge.Normalize()
	if got := edge.Class(); got != ClassLight {
		t.Errorf("64k-op request classed %v, want light", got)
	}
	edge.Check = true // 128k >= 100k
	if got := edge.Class(); got != ClassHeavy {
		t.Errorf("checked 128k-op request classed %v, want heavy", got)
	}
}

// TestAdmissionPoolsAndReserve pins the borrow semantics: a class
// fills its own slots first, borrows the shared reserve next, and a
// released slot returns to the pool it came from.
func TestAdmissionPoolsAndReserve(t *testing.T) {
	// 3 slots split 1 light / 1 heavy / 1 reserve.
	a := newAdmission(3, 0, nil)
	h1, ok := a.tryAcquire(ClassHeavy) // heavy dedicated
	if !ok {
		t.Fatal("heavy slot 1")
	}
	h2, ok := a.tryAcquire(ClassHeavy) // borrows the reserve
	if !ok {
		t.Fatal("heavy slot 2 (reserve)")
	}
	if _, ok := a.tryAcquire(ClassHeavy); ok {
		t.Fatal("third heavy acquire succeeded; nothing left to take")
	}
	// The light dedicated slot is untouchable by heavy load.
	l1, ok := a.tryAcquire(ClassLight)
	if !ok {
		t.Fatal("light dedicated slot unavailable under heavy saturation")
	}
	if _, ok := a.tryAcquire(ClassLight); ok {
		t.Fatal("second light acquire succeeded; reserve should be gone")
	}
	// Releasing the reserve-borrowed token frees the reserve for light.
	a.release(h2)
	l2, ok := a.tryAcquire(ClassLight)
	if !ok {
		t.Fatal("light could not borrow the freed reserve")
	}
	a.release(h1)
	a.release(l1)
	a.release(l2)
}

// TestAdmissionShedsAtClassDepth asserts the per-class queue bound:
// once the class's queue is full, an acquire that cannot take a slot
// sheds instead of waiting, and only its own class's counters move.
func TestAdmissionShedsAtClassDepth(t *testing.T) {
	m := &Metrics{}
	a := newAdmission(1, 0, m) // one reserve slot, one waiter per class
	tok, ok := a.tryAcquire(ClassHeavy)
	if !ok {
		t.Fatal("reserve slot")
	}
	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error)
	go func() {
		_, _, err := a.acquire(ctx, ClassLight)
		waiter <- err
	}()
	waitFor(t, func() bool { return a.queued(ClassLight) == 1 }, "the light waiter to queue")
	_, shed, err := a.acquire(context.Background(), ClassLight)
	if err != nil || !shed {
		t.Fatalf("acquire with full pools and zero queue: shed=%t err=%v, want shed", shed, err)
	}
	if m.ClassShed[ClassLight].Load() != 1 || m.ClassShed[ClassHeavy].Load() != 0 {
		t.Errorf("ClassShed = light %d heavy %d, want 1/0",
			m.ClassShed[ClassLight].Load(), m.ClassShed[ClassHeavy].Load())
	}
	if m.Shed.Load() != 1 {
		t.Errorf("aggregate Shed = %d, want 1", m.Shed.Load())
	}
	cancel()
	if err := <-waiter; err == nil {
		t.Error("the cancelled waiter took a slot")
	}
	a.release(tok)
}

// TestConfigDefaults pins the defaults: a zero Config normalizes to
// DefaultConfig, whose 4 slots split into 2 light, 1 heavy and 1
// reserve, and whose 16 queued requests split 8 and 8.
func TestConfigDefaults(t *testing.T) {
	var c Config
	c.Normalize()
	if c != DefaultConfig() {
		t.Errorf("normalized zero Config = %+v, want DefaultConfig %+v", c, DefaultConfig())
	}
	a := newAdmission(c.MaxConcurrent, c.QueueDepth, nil)
	if l, h, r := cap(a.slots[ClassLight]), cap(a.slots[ClassHeavy]), cap(a.reserve); l != 2 || h != 1 || r != 1 {
		t.Errorf("slots light/heavy/reserve = %d/%d/%d, want 2/1/1", l, h, r)
	}
	if a.depth[ClassLight] != 8 || a.depth[ClassHeavy] != 8 {
		t.Errorf("queues light/heavy = %d/%d, want 8/8", a.depth[ClassLight], a.depth[ClassHeavy])
	}
	if a.capacity(ClassLight) != 3 || a.capacity(ClassHeavy) != 2 {
		t.Errorf("capacity light/heavy = %d/%d, want 3/2", a.capacity(ClassLight), a.capacity(ClassHeavy))
	}
}

// TestRetryAfterBounds pins the scaled backoff hint (the satellite
// contract): at least 1s, at most the 300s cap, exactly the base
// budget when nothing is queued, and nondecreasing in queue depth.
func TestRetryAfterBounds(t *testing.T) {
	if got := retryAfterSeconds(30*time.Second, 0, 4); got != 30 {
		t.Errorf("empty queue: %d, want the 30s base budget", got)
	}
	if got := retryAfterSeconds(30*time.Second, 4, 4); got != 60 {
		t.Errorf("one budget's worth queued: %d, want 60", got)
	}
	if got := retryAfterSeconds(time.Millisecond, 0, 1); got != 1 {
		t.Errorf("tiny budget: %d, want the 1s floor", got)
	}
	if got := retryAfterSeconds(10*time.Minute, 1000, 1); got != retryAfterCapSeconds {
		t.Errorf("huge pressure: %d, want the %ds cap", got, retryAfterCapSeconds)
	}
	if got := retryAfterSeconds(30*time.Second, -5, 0); got != 30 {
		t.Errorf("degenerate inputs: %d, want 30 (clamped to sane)", got)
	}
	prev := 0
	for q := int64(0); q <= 64; q += 4 {
		got := retryAfterSeconds(10*time.Second, q, 2)
		if got < prev {
			t.Fatalf("hint decreased with queue depth: %d at q=%d after %d", got, q, prev)
		}
		if got < 1 || got > retryAfterCapSeconds {
			t.Fatalf("hint %d outside [1, %d] at q=%d", got, retryAfterCapSeconds, q)
		}
		prev = got
	}
}

// TestSplitSlots pins the derivation from the aggregate knob: tiny
// totals degenerate to one shared pool, larger ones keep dedicated
// slots for both classes plus a reserve, always summing exactly.
func TestSplitSlots(t *testing.T) {
	for total := 1; total <= 32; total++ {
		light, heavy, reserve := splitSlots(total)
		if light+heavy+reserve != total {
			t.Fatalf("splitSlots(%d) = %d+%d+%d, does not sum", total, light, heavy, reserve)
		}
		if total < 3 {
			if reserve != total {
				t.Errorf("splitSlots(%d): tiny total must be all reserve", total)
			}
			continue
		}
		if light < 1 || heavy < 1 || reserve < 1 {
			t.Errorf("splitSlots(%d) = %d/%d/%d: every pool needs a slot", total, light, heavy, reserve)
		}
		if light < heavy {
			t.Errorf("splitSlots(%d): light %d < heavy %d; the cheap class keeps the remainder", total, light, heavy)
		}
	}
}
