package simd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Config holds the daemon's deployment settings. The zero value is
// usable: Normalize fills every unset field from DefaultConfig. The
// admission pools are derived from MaxConcurrent and QueueDepth (see
// newAdmission); the cost-class split (heavyOps) and the poison-input
// breaker (breakerPanics, breakerCooldown) are fixed policy.
type Config struct {
	MaxConcurrent  int           // total admission slots, split across the cost classes
	QueueDepth     int           // total waiters beyond the slots, halved between the classes
	CacheEntries   int           // LRU capacity of the result cache
	CacheTTL       time.Duration // result body lifetime (< 0: never expires)
	CacheDir       string        // durable cache directory ("" = memory-only)
	DefaultTimeout time.Duration // per-request deadline when the request names none
	MaxTimeout     time.Duration // ceiling clamped onto requested deadlines
	DrainTimeout   time.Duration // graceful-shutdown budget before force-cancel

	chaos bool // accept the __panic/__hang test workloads (this package's tests only)
}

// DefaultConfig returns the production defaults: what Normalize fills
// in and what cmd/simd's flags start from.
func DefaultConfig() Config {
	return Config{
		MaxConcurrent:  4,
		QueueDepth:     16,
		CacheEntries:   256,
		CacheTTL:       10 * time.Minute,
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     5 * time.Minute,
		DrainTimeout:   10 * time.Second,
	}
}

// Normalize replaces each zero field, and each negative one except
// CacheTTL, with its DefaultConfig value.
func (c *Config) Normalize() {
	d := DefaultConfig()
	c.MaxConcurrent = orDefault(c.MaxConcurrent, d.MaxConcurrent)
	c.QueueDepth = orDefault(c.QueueDepth, d.QueueDepth)
	c.CacheEntries = orDefault(c.CacheEntries, d.CacheEntries)
	if c.CacheTTL == 0 {
		c.CacheTTL = d.CacheTTL
	}
	c.DefaultTimeout = orDefault(c.DefaultTimeout, d.DefaultTimeout)
	c.MaxTimeout = orDefault(c.MaxTimeout, d.MaxTimeout)
	c.DrainTimeout = orDefault(c.DrainTimeout, d.DrainTimeout)
}

// orDefault returns v when it is positive and def otherwise.
func orDefault[T int | time.Duration](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}

// Daemon serves simulation experiments over HTTP/JSON. See the
// package comment for the robustness contract.
type Daemon struct {
	cfg        Config
	metrics    *Metrics
	cache      *Cache
	store      *Store // nil in memory-only mode
	admit      *admission
	breaker    *breaker
	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   atomic.Bool // readiness flips off at the start of a drain
	mux        *http.ServeMux
}

// New builds a daemon from cfg (normalized in place). With a CacheDir
// it opens the durable store and runs the bounded restore pass —
// individual torn, corrupt, or expired files are discarded and
// counted, never fatal; only an unusable directory errors.
func New(cfg Config) (*Daemon, error) {
	cfg.Normalize()
	baseCtx, baseCancel := context.WithCancel(context.Background())
	d := &Daemon{
		cfg:        cfg,
		metrics:    &Metrics{},
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		mux:        http.NewServeMux(),
	}
	d.admit = newAdmission(cfg.MaxConcurrent, cfg.QueueDepth, d.metrics)
	d.breaker = newBreaker(d.metrics)
	d.cache = NewCache(cfg.CacheEntries, cfg.CacheTTL, baseCtx, d.metrics)
	if cfg.CacheDir != "" {
		store, err := OpenStore(cfg.CacheDir, d.metrics)
		if err != nil {
			baseCancel()
			return nil, err
		}
		restored, err := store.Restore(cfg.CacheEntries, time.Now())
		if err != nil {
			store.Drain(0)
			baseCancel()
			return nil, err
		}
		d.cache.restore(restored)
		d.cache.store = store
		d.store = store
	}
	d.mux.HandleFunc("/run", d.handleRun)
	d.mux.HandleFunc("/healthz", d.handleHealthz)
	d.mux.HandleFunc("/readyz", d.handleReadyz)
	d.mux.HandleFunc("/metrics", d.handleMetrics)
	return d, nil
}

// Metrics exposes the daemon's counters (for tests and embedding).
func (d *Daemon) Metrics() *Metrics { return d.metrics }

// Handler returns the daemon's HTTP handler (for httptest servers).
func (d *Daemon) Handler() http.Handler { return d.mux }

// Close force-cancels outstanding work and drains the durable store,
// for daemons driven through Handler rather than Serve (tests).
// Serve performs the same teardown itself.
func (d *Daemon) Close() {
	d.baseCancel()
	if d.store != nil {
		d.store.Drain(d.cfg.DrainTimeout)
	}
}

// jsonError writes a fixed-shape JSON error body.
func jsonError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(map[string]string{"error": msg})
	w.Write(append(body, '\n'))
}

func (d *Daemon) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		jsonError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	d.metrics.Requests.Add(1)
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		d.metrics.BadInput.Add(1)
		jsonError(w, http.StatusBadRequest, "decode request: "+err.Error())
		return
	}
	req.Normalize()
	if err := req.Validate(d.cfg.chaos); err != nil {
		d.metrics.BadInput.Add(1)
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := req.Key()

	// Fast path: a cached body needs no admission slot, no deadline,
	// and no breaker consultation (a cached body proves the key runs).
	if body, ok := d.cache.Lookup(key); ok {
		d.metrics.Completed.Add(1)
		writeBody(w, body, "hit")
		return
	}

	// Poison-input breaker: a key that kept panicking the engine is
	// negatively cached — answer 422 now instead of burning a slot on
	// a run that deterministically dies.
	if ok, cooldown := d.breaker.allow(key); !ok {
		w.Header().Set("Retry-After", strconv.Itoa(int((cooldown+time.Second-1)/time.Second)))
		jsonError(w, http.StatusUnprocessableEntity,
			"input poisoned: this exact request repeatedly crashed the engine; retry after the cooldown")
		return
	}

	// Admission: requests compete inside their cost class (plus the
	// shared reserve), so a flood of heavy sweeps sheds 429 while
	// cheap interactive runs keep being served from the light pool.
	// The Retry-After hint scales with the shedding class's queue.
	class := req.Class()
	w.Header().Set("X-Simd-Class", class.String())
	tok, shed, err := d.admit.acquire(r.Context(), class)
	if shed {
		w.Header().Set("Retry-After",
			strconv.Itoa(retryAfterSeconds(d.cfg.DefaultTimeout, d.admit.queued(class), d.admit.capacity(class))))
		jsonError(w, http.StatusTooManyRequests, class.String()+" admission queue full")
		return
	}
	if err != nil {
		d.metrics.Timeouts.Add(1)
		jsonError(w, http.StatusGatewayTimeout, "timed out waiting for an admission slot")
		return
	}
	d.metrics.InFlight.Add(1)
	defer func() {
		d.metrics.InFlight.Add(-1)
		d.admit.release(tok)
	}()

	// Deadline: the request's own budget, clamped to the server
	// ceiling; r.Context() additionally ends on client disconnect and
	// on forced shutdown (it descends from the daemon's base context).
	budget := d.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		budget = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if budget > d.cfg.MaxTimeout {
		budget = d.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()

	body, err := d.cache.Do(ctx, key, func(fctx context.Context) ([]byte, error) {
		return runRequest(fctx, req)
	})
	switch {
	case err == nil:
		d.breaker.onSuccess(key)
		d.metrics.Completed.Add(1)
		writeBody(w, body, "miss")
	case errors.Is(err, ErrPanic):
		// Panics.Add already happened in the cache lead.
		d.breaker.onPanic(key)
		jsonError(w, http.StatusInternalServerError, "internal error: run panicked")
	case errors.Is(err, context.DeadlineExceeded):
		d.metrics.Timeouts.Add(1)
		jsonError(w, http.StatusGatewayTimeout, fmt.Sprintf("deadline %v exceeded", budget))
	case errors.Is(err, context.Canceled):
		d.metrics.Timeouts.Add(1)
		jsonError(w, http.StatusGatewayTimeout, "request cancelled")
	default:
		d.metrics.Errors.Add(1)
		jsonError(w, http.StatusInternalServerError, err.Error())
	}
}

func writeBody(w http.ResponseWriter, body []byte, cacheState string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Simd-Cache", cacheState)
	w.Write(body)
}

func (d *Daemon) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (d *Daemon) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if d.draining.Load() || d.baseCtx.Err() != nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

func (d *Daemon) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	d.metrics.WritePrometheus(w)
}

// Serve runs the daemon on ln until ctx is cancelled, then drains:
// readiness flips to 503 (load balancers stop sending work), in-flight
// requests get DrainTimeout to finish, and whatever is still running
// afterwards is force-cancelled through the base context — the engines
// abort within sim.CancelCheckEvery events, so shutdown is prompt even
// mid-simulation. The durable store is drained last: pending
// write-behind flushes get the same budget to land atomically, and
// anything the budget does not cover is abandoned as a .tmp file,
// never a torn final entry. Returns nil on a clean drain.
func (d *Daemon) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler: d.mux,
		// Request contexts descend from baseCtx, which stays live
		// through the drain window; baseCancel afterwards is the
		// force-kill that unblocks queued and running handlers.
		BaseContext: func(net.Listener) context.Context { return d.baseCtx },
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	d.draining.Store(true)

	sctx, cancel := context.WithTimeout(context.Background(), d.cfg.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(sctx)
	// Force-cancel anything the drain budget did not cover: flights
	// and request contexts descend from baseCtx, so the simulators
	// stop within their event bound and the handlers return.
	d.baseCancel()
	if err != nil {
		// Give the now-cancelled handlers a moment to unwind so the
		// process exits with closed connections rather than a knife.
		fctx, fcancel := context.WithTimeout(context.Background(), time.Second)
		defer fcancel()
		err = srv.Shutdown(fctx)
	}
	if d.store != nil {
		d.store.Drain(d.cfg.DrainTimeout)
	}
	return err
}
