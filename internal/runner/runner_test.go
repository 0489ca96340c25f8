package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestRunCoversEveryIndex(t *testing.T) {
	for _, jobs := range []int{1, 2, 8} {
		n := 100
		slots := make([]int, n)
		err := New(jobs).Run(n, func(i int) error {
			slots[i] = i + 1
			return nil
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, v := range slots {
			if v != i+1 {
				t.Fatalf("jobs=%d: slot %d = %d, want %d", jobs, i, v, i+1)
			}
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const jobs = 3
	var cur, max atomic.Int64
	err := New(jobs).Run(64, func(i int) error {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := max.Load(); m > jobs {
		t.Fatalf("observed %d concurrent items, pool width %d", m, jobs)
	}
}

func TestRunReturnsLowestIndexError(t *testing.T) {
	for _, jobs := range []int{1, 4, 16} {
		err := New(jobs).Run(50, func(i int) error {
			if i == 7 || i == 31 {
				return fmt.Errorf("item %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 7 failed" {
			t.Fatalf("jobs=%d: got %v, want the index-7 error", jobs, err)
		}
	}
}

func TestRunEmptyAndDefaults(t *testing.T) {
	if err := New(0).Run(0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatalf("n=0 ran fn: %v", err)
	}
	if j := New(0).jobs; j < 1 {
		t.Fatalf("default jobs = %d, want >= 1", j)
	}
	if j := New(-3).jobs; j != DefaultJobs() {
		t.Fatalf("jobs(-3) = %d, want DefaultJobs()=%d", j, DefaultJobs())
	}
}

func TestStripeCoversEveryIndex(t *testing.T) {
	for _, jobs := range []int{1, 2, 7} {
		n := 53
		slots := make([]int32, n)
		New(jobs).Stripe(n, func(i int) { atomic.AddInt32(&slots[i], 1) })
		for i, v := range slots {
			if v != 1 {
				t.Fatalf("jobs=%d: index %d visited %d times", jobs, i, v)
			}
		}
	}
}

// TestRunCtxStopsDispatchOnCancel cancels the context from inside an
// item and asserts no index starts afterwards, with ctx.Err() reported.
func TestRunCtxStopsDispatchOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 1000
	var started atomic.Int64
	err := New(4).RunCtx(ctx, n, func(i int) error {
		started.Add(1)
		if i == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := started.Load(); got >= n {
		t.Errorf("all %d items ran despite cancellation", got)
	}
}

// TestRunCtxPrefersLowerIndexError asserts a real failure at a lower
// index wins over the cancellation error at higher ones.
func TestRunCtxPrefersLowerIndexError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	err := New(1).RunCtx(ctx, 100, func(i int) error {
		if i == 3 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestRunCtxNilAndBackgroundMatchRun asserts the zero-cost paths: a nil
// or never-cancellable context runs every index exactly like Run.
func TestRunCtxNilAndBackgroundMatchRun(t *testing.T) {
	for _, ctx := range []context.Context{nil, context.Background()} {
		var ran atomic.Int64
		if err := New(4).RunCtx(ctx, 50, func(i int) error { ran.Add(1); return nil }); err != nil {
			t.Fatalf("ctx=%v: err = %v", ctx, err)
		}
		if ran.Load() != 50 {
			t.Errorf("ctx=%v: ran %d items, want 50", ctx, ran.Load())
		}
	}
}
