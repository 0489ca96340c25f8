package simd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// tinyBody is a request small enough that a full run takes a few
// milliseconds: a 2x2x1 machine doing 4 acquires over 2 locks.
func tinyBody(seed int64) string {
	return fmt.Sprintf(`{"protocol":"TokenCMP-dst1","workload":"locking","locks":2,"acquires":4,"cmps":2,"procs":2,"banks":1,"seed":%d}`, seed)
}

// newTestDaemon builds a daemon and ties its teardown (force-cancel +
// store drain) to the test.
func newTestDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func post(t *testing.T, client *http.Client, url, body string) (int, http.Header, string) {
	t.Helper()
	resp, err := client.Post(url+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(b)
}

// TestServerCollapsesDuplicates fires the same experiment from many
// goroutines at once and asserts exactly one simulation ran and every
// client received byte-identical bodies — the cache-key determinism
// contract.
func TestServerCollapsesDuplicates(t *testing.T) {
	d := newTestDaemon(t, Config{MaxConcurrent: 4, QueueDepth: 32})
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	const n = 12
	bodies := make([]string, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, bodies[i] = post(t, ts.Client(), ts.URL, tinyBody(1))
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d body %s", i, codes[i], bodies[i])
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("client %d body diverged:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if runs := d.Metrics().Runs.Load(); runs != 1 {
		t.Errorf("underlying runs = %d, want 1 (singleflight collapse)", runs)
	}
	// A follow-up request is a pure cache hit with the same bytes.
	code, hdr, body := post(t, ts.Client(), ts.URL, tinyBody(1))
	if code != http.StatusOK || body != bodies[0] {
		t.Fatalf("cached replay: status %d, body match %t", code, body == bodies[0])
	}
	if hdr.Get("X-Simd-Cache") != "hit" {
		t.Errorf("X-Simd-Cache = %q, want hit", hdr.Get("X-Simd-Cache"))
	}
}

// TestServerShedsAtCapacity saturates one admission slot and a
// depth-1 queue with hanging runs and asserts the next request is
// shed with 429 and a Retry-After hint instead of queueing.
func TestServerShedsAtCapacity(t *testing.T) {
	d := newTestDaemon(t, Config{MaxConcurrent: 1, QueueDepth: 1, DefaultTimeout: 2 * time.Second, chaos: true})
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	hang := func(seed int64) string {
		return fmt.Sprintf(`{"workload":"__hang","seed":%d,"timeout_ms":1500}`, seed)
	}
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := int64(1); i <= 2; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			<-release
			post(t, ts.Client(), ts.URL, hang(seed)) // times out with 504 eventually
		}(i)
	}
	close(release)
	// Wait until the slot is held and the queue position is taken.
	deadline := time.Now().Add(2 * time.Second)
	for d.Metrics().InFlight.Load() < 1 || d.Metrics().Queued.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("saturation never reached: inflight=%d queued=%d",
				d.Metrics().InFlight.Load(), d.Metrics().Queued.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	code, hdr, body := post(t, ts.Client(), ts.URL, hang(3))
	if code != http.StatusTooManyRequests {
		t.Fatalf("status = %d body %s, want 429", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 carried no Retry-After hint")
	}
	if d.Metrics().Shed.Load() != 1 {
		t.Errorf("Shed = %d, want 1", d.Metrics().Shed.Load())
	}
	wg.Wait()
}

// TestServerDeadlineAbortsEngine gives a genuinely large simulation a
// tiny budget and asserts the request comes back 504 promptly — the
// deadline must reach the event loop, not just the HTTP layer.
func TestServerDeadlineAbortsEngine(t *testing.T) {
	d := newTestDaemon(t, Config{MaxConcurrent: 2, QueueDepth: 4})
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	big := `{"protocol":"TokenCMP-dst1","workload":"locking","acquires":60000,"timeout_ms":50}`
	start := time.Now()
	code, _, body := post(t, ts.Client(), ts.URL, big)
	elapsed := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d body %s, want 504", code, body)
	}
	if elapsed > 5*time.Second {
		t.Errorf("504 took %v; the engine did not abort on deadline", elapsed)
	}
	if d.Metrics().Timeouts.Load() != 1 {
		t.Errorf("Timeouts = %d, want 1", d.Metrics().Timeouts.Load())
	}
}

// TestServerPanicIsolation asserts a poisoned request yields one 500
// and leaves the daemon fully serviceable.
func TestServerPanicIsolation(t *testing.T) {
	d := newTestDaemon(t, Config{MaxConcurrent: 2, QueueDepth: 4, chaos: true})
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	code, _, body := post(t, ts.Client(), ts.URL, `{"workload":"__panic"}`)
	if code != http.StatusInternalServerError || !strings.Contains(body, "panicked") {
		t.Fatalf("panic request: status %d body %s", code, body)
	}
	if d.Metrics().Panics.Load() != 1 {
		t.Errorf("Panics = %d, want 1", d.Metrics().Panics.Load())
	}
	code, _, body = post(t, ts.Client(), ts.URL, tinyBody(1))
	if code != http.StatusOK {
		t.Fatalf("daemon unhealthy after panic: status %d body %s", code, body)
	}
}

// TestServerRejectsBadInput covers the 400 paths: malformed JSON,
// unknown fields, unknown protocol, out-of-range values, and chaos
// workloads without the chaos gate.
func TestServerRejectsBadInput(t *testing.T) {
	d := newTestDaemon(t, Config{})
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	bodies := []string{
		`{`,
		`{"bogus_field":1}`,
		`{"protocol":"NoSuchCMP"}`,
		`{"workload":"knitting"}`,
		`{"cmps":999}`,
		`{"seeds":-2}`,
		`{"workload":"__panic"}`, // chaos gate off
		`{"locks":-1}`,
		`{"workload":"barrier","barriers":5000}`,
		`{"timeout_ms":-1}`,
	}
	for _, body := range bodies {
		code, _, resp := post(t, ts.Client(), ts.URL, body)
		if code != http.StatusBadRequest {
			t.Errorf("body %s: status %d (%s), want 400", body, code, resp)
		}
	}
	if got := d.Metrics().BadInput.Load(); got != uint64(len(bodies)) {
		t.Errorf("BadInput = %d, want %d", got, len(bodies))
	}
}

// TestServerResponseShape decodes a body back into Response and spot
// checks the simulation actually happened.
func TestServerResponseShape(t *testing.T) {
	d := newTestDaemon(t, Config{})
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	code, _, body := post(t, ts.Client(), ts.URL, tinyBody(7))
	if code != http.StatusOK {
		t.Fatalf("status %d body %s", code, body)
	}
	var resp Response
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Protocol != "TokenCMP-dst1" || resp.Runs != 1 {
		t.Errorf("resp = %+v", resp)
	}
	if resp.Events == 0 || resp.Acquires != 2*2*4 {
		t.Errorf("no simulation evidence in %+v", resp)
	}
	if resp.Violations != 0 {
		t.Errorf("mutual exclusion violated: %+v", resp)
	}
}

// TestServeDrain runs the real Serve loop, parks a hanging request in
// it, cancels the serve context, and asserts: readiness flips to 503,
// the hanging run is force-cancelled after the drain budget, and
// Serve returns.
func TestServeDrain(t *testing.T) {
	d := newTestDaemon(t, Config{
		MaxConcurrent: 2, QueueDepth: 4, chaos: true,
		DefaultTimeout: 30 * time.Second,
		DrainTimeout:   150 * time.Millisecond,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- d.Serve(ctx, ln) }()
	url := "http://" + ln.Addr().String()

	get := func(path string) int {
		resp, err := http.Get(url + path)
		if err != nil {
			return -1
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor(func() bool { return get("/readyz") == http.StatusOK }, "readiness")

	// Park a request that will only end when force-cancelled.
	hangDone := make(chan struct {
		code int
		body string
	}, 1)
	go func() {
		resp, err := http.Post(url+"/run", "application/json",
			bytes.NewReader([]byte(`{"workload":"__hang"}`)))
		if err != nil {
			hangDone <- struct {
				code int
				body string
			}{-1, err.Error()}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		hangDone <- struct {
			code int
			body string
		}{resp.StatusCode, string(b)}
	}()
	waitFor(func() bool { return d.Metrics().InFlight.Load() == 1 }, "the hanging run")

	cancel()
	waitFor(func() bool { return get("/readyz") != http.StatusOK }, "readiness to drop")

	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("Serve returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve never returned after cancellation")
	}
	select {
	case r := <-hangDone:
		// The force-cancel turns the hang into a 504/cancelled response
		// (or a torn connection if the server closed first) — either
		// way the handler goroutine ended.
		t.Logf("hanging request resolved: code=%d body=%s", r.code, r.body)
	case <-time.After(2 * time.Second):
		t.Fatal("hanging request still alive after drain + force-cancel")
	}
}

// TestServerRestartServesFromDisk is the in-process crash-restart
// test: populate a daemon's durable cache, boot a second daemon on
// the same directory (with torn and stale-tmp debris injected, as a
// kill -9 would leave), and assert every fully-written entry is
// served byte-identical from disk with zero re-runs while the debris
// is discarded and counted.
func TestServerRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	d1 := newTestDaemon(t, Config{CacheDir: dir, CacheTTL: time.Hour})
	ts1 := httptest.NewServer(d1.Handler())
	const n = 3
	bodies := make([]string, n)
	for i := 0; i < n; i++ {
		code, _, body := post(t, ts1.Client(), ts1.URL, tinyBody(int64(i+1)))
		if code != http.StatusOK {
			t.Fatalf("seed %d: status %d body %s", i+1, code, body)
		}
		bodies[i] = body
	}
	waitFor(t, func() bool { return d1.Metrics().PersistWritten.Load() >= n }, "write-behind flushes")
	ts1.Close()
	d1.Close()

	// Debris a kill -9 mid-write can leave: a truncated entry and a
	// stale .tmp. The restore pass must discard both, count them, and
	// keep booting.
	frame := encodeFrame("torn-key", []byte("half"), time.Time{})
	writeRaw(t, d1.store.entryPath("torn-key"), frame[:len(frame)-3])
	writeRaw(t, d1.store.entryPath("stale")+tmpExt, []byte("unfinished"))

	d2 := newTestDaemon(t, Config{CacheDir: dir, CacheTTL: time.Hour})
	ts2 := httptest.NewServer(d2.Handler())
	defer ts2.Close()
	if got := d2.Metrics().Restored.Load(); got != n {
		t.Errorf("Restored = %d, want %d", got, n)
	}
	if got := d2.Metrics().RestoreTorn.Load(); got != 2 {
		t.Errorf("RestoreTorn = %d, want 2 (torn entry + stale tmp)", got)
	}
	for i := 0; i < n; i++ {
		code, hdr, body := post(t, ts2.Client(), ts2.URL, tinyBody(int64(i+1)))
		if code != http.StatusOK || body != bodies[i] {
			t.Fatalf("seed %d after restart: status %d, byte-identical %t", i+1, code, body == bodies[i])
		}
		if hdr.Get("X-Simd-Cache") != "hit" {
			t.Errorf("seed %d after restart: X-Simd-Cache = %q, want hit", i+1, hdr.Get("X-Simd-Cache"))
		}
	}
	if runs := d2.Metrics().Runs.Load(); runs != 0 {
		t.Errorf("restart re-ran %d simulations for warm keys, want 0", runs)
	}
}

// TestServerRestartHonorsTTL asserts a restored entry keeps its
// original absolute expiry: a body written with a short TTL is gone
// after a restart that happens past the deadline, and the restore
// pass counts it as expired.
func TestServerRestartHonorsTTL(t *testing.T) {
	dir := t.TempDir()
	d1 := newTestDaemon(t, Config{CacheDir: dir, CacheTTL: 50 * time.Millisecond})
	ts1 := httptest.NewServer(d1.Handler())
	code, _, _ := post(t, ts1.Client(), ts1.URL, tinyBody(1))
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	waitFor(t, func() bool { return d1.Metrics().PersistWritten.Load() >= 1 }, "write-behind flush")
	ts1.Close()
	d1.Close()
	time.Sleep(80 * time.Millisecond) // entry is now past its absolute expiry

	d2 := newTestDaemon(t, Config{CacheDir: dir, CacheTTL: 50 * time.Millisecond})
	if got := d2.Metrics().RestoreExpired.Load(); got != 1 {
		t.Errorf("RestoreExpired = %d, want 1", got)
	}
	if got := d2.Metrics().Restored.Load(); got != 0 {
		t.Errorf("Restored = %d, want 0 (the entry died with its TTL)", got)
	}
}

// TestServerHeavyFloodDoesNotStarveLight is the starvation test: a
// flood of heavy-class hangs saturates the heavy pool, the reserve,
// and the heavy queue — yet cheap requests keep completing out of the
// light pool with bounded admission latency, and the heavy flood
// sheds 429 with a Retry-After scaled by its own queue.
func TestServerHeavyFloodDoesNotStarveLight(t *testing.T) {
	// 3 slots split 1 light / 1 heavy / 1 reserve; 4 queued split 2 / 2.
	d := newTestDaemon(t, Config{
		MaxConcurrent: 3, QueueDepth: 4,
		DefaultTimeout: 5 * time.Second, chaos: true,
	})
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	// A hang classed heavy: 60000 acquires x 16 procs >= the 100k threshold.
	heavyHang := func(seed int64) string {
		return fmt.Sprintf(`{"workload":"__hang","acquires":60000,"seed":%d,"timeout_ms":2500}`, seed)
	}
	const flood = 8
	codes := make([]int, flood)
	retryAfters := make([]string, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var hdr http.Header
			codes[i], hdr, _ = post(t, ts.Client(), ts.URL, heavyHang(int64(i+1)))
			retryAfters[i] = hdr.Get("Retry-After")
		}(i)
	}
	// Saturation: 2 heavy holding slots (dedicated + reserve), 2 queued.
	waitFor(t, func() bool {
		return d.Metrics().InFlight.Load() >= 2 && d.Metrics().ClassShed[ClassHeavy].Load() >= flood-4
	}, "heavy saturation and shedding")

	// The cheap class still completes, promptly, while the flood holds.
	for seed := int64(1); seed <= 3; seed++ {
		start := time.Now()
		code, hdr, body := post(t, ts.Client(), ts.URL, tinyBody(seed))
		if code != http.StatusOK {
			t.Fatalf("light request under heavy flood: status %d body %s", code, body)
		}
		if hdr.Get("X-Simd-Class") != "light" {
			t.Errorf("X-Simd-Class = %q, want light", hdr.Get("X-Simd-Class"))
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("light admission latency %v under heavy flood; the light pool is starved", elapsed)
		}
	}
	wg.Wait()

	shed429 := 0
	for i, code := range codes {
		if code != http.StatusTooManyRequests {
			continue
		}
		shed429++
		ra, err := strconv.Atoi(retryAfters[i])
		if err != nil || ra < 1 {
			t.Errorf("shed heavy request %d: Retry-After = %q, want a positive integer", i, retryAfters[i])
		}
		// Scaled hint: base 5s budget x (1 + queued/slots) > plain base.
		if ra < 5 {
			t.Errorf("shed heavy request %d: Retry-After = %d, want >= the 5s base budget", i, ra)
		}
	}
	if shed429 != flood-4 {
		t.Errorf("heavy flood: %d shed with 429, want %d (2 slots + 2 queued survive)", shed429, flood-4)
	}
	if got := d.Metrics().ClassShed[ClassLight].Load(); got != 0 {
		t.Errorf("light class shed %d requests during a heavy flood", got)
	}
	if got := d.Metrics().ClassAdmitted[ClassLight].Load(); got < 3 {
		t.Errorf("ClassAdmitted[light] = %d, want >= 3", got)
	}
}

// TestServerBreaker422 drives the poison-input breaker end to end:
// the same chaos-panic key 500s until the threshold, then answers 422
// with a Retry-After immediately (no engine run), while a different
// key still reaches the engine.
func TestServerBreaker422(t *testing.T) {
	d := newTestDaemon(t, Config{MaxConcurrent: 2, QueueDepth: 4, chaos: true})
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	poison := `{"workload":"__panic","seed":42}`
	for i := 0; i < breakerPanics; i++ {
		code, _, body := post(t, ts.Client(), ts.URL, poison)
		if code != http.StatusInternalServerError {
			t.Fatalf("panic %d: status %d body %s", i+1, code, body)
		}
	}
	runsBefore := d.Metrics().Runs.Load()
	code, hdr, body := post(t, ts.Client(), ts.URL, poison)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("post-threshold status = %d body %s, want 422", code, body)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("422 Retry-After = %q, want a positive integer", hdr.Get("Retry-After"))
	}
	if got := d.Metrics().Runs.Load(); got != runsBefore {
		t.Errorf("the breaker let the engine run again: Runs %d -> %d", runsBefore, got)
	}
	if d.Metrics().BreakerOpen.Load() != 1 || d.Metrics().BreakerRejected.Load() != 1 {
		t.Errorf("breaker counters open=%d rejected=%d, want 1/1",
			d.Metrics().BreakerOpen.Load(), d.Metrics().BreakerRejected.Load())
	}
	// A different seed is a different key: still served (and still panics).
	code, _, _ = post(t, ts.Client(), ts.URL, `{"workload":"__panic","seed":43}`)
	if code != http.StatusInternalServerError {
		t.Errorf("unrelated key: status %d, want 500 (breaker must be per-key)", code)
	}
	// An honest request is untouched.
	code, _, _ = post(t, ts.Client(), ts.URL, tinyBody(1))
	if code != http.StatusOK {
		t.Errorf("honest request during open breaker: status %d", code)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
