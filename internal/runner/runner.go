// Package runner provides a bounded worker pool for fanning independent
// work items — simulation runs, model-checker frontier expansions — out
// across goroutines. Callers address results by item index (each item
// writes its own pre-allocated slot), so merged output is independent of
// scheduling order and byte-identical to a serial loop.
package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultJobs is the pool width used when none is requested: one worker
// per available CPU.
func DefaultJobs() int { return runtime.GOMAXPROCS(0) }

// Pool is a bounded worker pool. The zero value is not usable; build
// one with New.
type Pool struct {
	jobs int
}

// New returns a pool running at most jobs items concurrently.
// jobs <= 0 selects DefaultJobs().
func New(jobs int) *Pool {
	if jobs <= 0 {
		jobs = DefaultJobs()
	}
	return &Pool{jobs: jobs}
}

// Run invokes fn(i) for every i in [0, n), at most jobs at a time.
// Indices are dispatched in ascending order from a shared counter, so
// load imbalance between items self-corrects. If any fn fails, Run stops
// dispatching new items, waits for in-flight ones, and returns the error
// with the lowest index — the same error a serial loop would report,
// because every index below a dispatched one has also been dispatched.
func (p *Pool) Run(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if p.jobs == 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	workers := p.jobs
	if workers > n {
		workers = n
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		errIdx   = -1
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Check for failure before claiming an index, never
				// after: a claimed index must always run, or the
				// lowest-index-error guarantee breaks (a lower index
				// could be claimed, then skipped when a higher one
				// fails first).
				if failed.Load() {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if errIdx == -1 || i < errIdx {
						errIdx, firstErr = i, err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// RunCtx is Run with cooperative cancellation: once ctx is cancelled,
// no further index starts its work — already-running items finish on
// their own (hand them the same ctx if they should stop early too, the
// way machine.RunCtx's engine does). Indices skipped by cancellation
// report ctx.Err(), so the lowest-index-error rule makes a cancelled
// call return ctx.Err() unless a real fn failure happened at a lower
// index first. A nil or never-cancellable ctx is exactly Run.
func (p *Pool) RunCtx(ctx context.Context, n int, fn func(i int) error) error {
	if ctx == nil || ctx.Done() == nil {
		return p.Run(n, fn)
	}
	return p.Run(n, func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return fn(i)
	})
}

// Stripe invokes fn(i) for every i in [0, n) by handing each worker a
// strided subset (worker w gets w, w+W, w+2W, ...). Cheaper than Run for
// very large n with very cheap fn — one dispatch per worker instead of
// one per item — at the cost of static load balance. fn must not fail.
func (p *Pool) Stripe(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := p.jobs
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}
