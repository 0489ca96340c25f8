// simd is the simulation-as-a-service daemon: an HTTP/JSON front end
// over the deterministic M-CMP simulator. Identical experiments are
// collapsed onto one run and served from an LRU+TTL result cache that
// can mirror itself to disk (-cache-dir) and survive kill -9, overload
// sheds with 429 + Retry-After scaled by queue pressure in per-cost-
// class admission pools, inputs that repeatedly crash the engine are
// negatively cached and answered 422, every request carries a
// wall-clock deadline that aborts the engine within a bounded number
// of events, and SIGINT/SIGTERM drains in-flight runs and pending
// cache flushes before exit.
//
// Usage:
//
//	simd -addr :8080 -cache-dir /var/lib/simd
//	curl -s localhost:8080/run -d '{"protocol":"TokenCMP-dst1","workload":"locking"}'
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"tokencmp/internal/simd"
)

func main() {
	cfg := simd.DefaultConfig()
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	flag.IntVar(&cfg.MaxConcurrent, "workers", cfg.MaxConcurrent, "total admission slots, split into light, heavy and shared reserve pools (must be >= 1)")
	flag.IntVar(&cfg.QueueDepth, "queue", cfg.QueueDepth, "total waiting requests beyond the slots before shedding with 429, halved between the classes (must be >= 1)")
	flag.IntVar(&cfg.CacheEntries, "cache-entries", cfg.CacheEntries, "result cache capacity in bodies (must be >= 1)")
	flag.DurationVar(&cfg.CacheTTL, "cache-ttl", cfg.CacheTTL, "result cache entry lifetime (<= 0: never expires)")
	flag.StringVar(&cfg.CacheDir, "cache-dir", cfg.CacheDir, "durable cache directory; results survive restarts (empty: memory-only)")
	flag.DurationVar(&cfg.DefaultTimeout, "request-timeout", cfg.DefaultTimeout, "default per-request deadline (must be > 0)")
	flag.DurationVar(&cfg.MaxTimeout, "max-timeout", cfg.MaxTimeout, "ceiling clamped onto requested deadlines (must be > 0)")
	flag.DurationVar(&cfg.DrainTimeout, "drain", cfg.DrainTimeout, "graceful-shutdown budget for in-flight runs and cache flushes (must be > 0)")
	flag.Parse()

	if err := validate(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(2)
	}
	run := cfg
	if run.CacheTTL <= 0 {
		run.CacheTTL = -1 // never expires; Normalize would read a zero as the default
	}
	d, err := simd.New(run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	persist := "memory-only"
	if cfg.CacheDir != "" {
		persist = fmt.Sprintf("dir=%s restored=%d torn=%d expired=%d",
			cfg.CacheDir, d.Metrics().Restored.Load(), d.Metrics().RestoreTorn.Load(), d.Metrics().RestoreExpired.Load())
	}
	fmt.Printf("simd: listening on %s (workers=%d queue=%d cache=%d ttl=%v %s)\n",
		ln.Addr(), cfg.MaxConcurrent, cfg.QueueDepth, cfg.CacheEntries, cfg.CacheTTL, persist)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := d.Serve(ctx, ln); err != nil {
		fmt.Fprintf(os.Stderr, "simd: shutdown: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("simd: drained cleanly")
}

// validate refuses the flag values simd.Config.Normalize would
// silently replace with a default: a slot, queue or cache size below
// one, or a deadline or drain budget that is not positive.
func validate(c simd.Config) error {
	switch {
	case c.MaxConcurrent < 1:
		return fmt.Errorf("-workers = %d, must be >= 1", c.MaxConcurrent)
	case c.QueueDepth < 1:
		return fmt.Errorf("-queue = %d, must be >= 1", c.QueueDepth)
	case c.CacheEntries < 1:
		return fmt.Errorf("-cache-entries = %d, must be >= 1", c.CacheEntries)
	case c.DefaultTimeout <= 0:
		return fmt.Errorf("-request-timeout = %v, must be > 0", c.DefaultTimeout)
	case c.MaxTimeout <= 0:
		return fmt.Errorf("-max-timeout = %v, must be > 0", c.MaxTimeout)
	case c.DrainTimeout <= 0:
		return fmt.Errorf("-drain = %v, must be > 0", c.DrainTimeout)
	}
	return nil
}
