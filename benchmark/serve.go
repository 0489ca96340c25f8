package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"tokencmp/internal/simd"
)

// serveWorkload drives an in-process simd daemon over loopback with a
// closed loop of two clients, each on its own keep-alive connection.
// Client c sends requests c, c+2, c+4, ... of the generated list, each
// only after its previous reply has been read.
type serveWorkload struct {
	reqs   []simd.Request
	bodies [][]byte // JSON request bodies, index-aligned with reqs
	origin []int    // index of the first request with the same key
}

// serveProtocols are the protocols the generated requests name.
var serveProtocols = []string{"DirectoryCMP", "HammerCMP", "TokenCMP-dst1", "TokenCMP-arb0"}

// serveWorkloadFor generates n requests from seed: small locking,
// barrier, OLTP and SPECjbb runs at the Table 3 geometry. The shapes
// cycle in a fixed order, so every seed sends the same mix and only the
// simulations' seeds differ. Every fourth request of a client, from its
// eighth on, repeats a key the same client sent at least four of its own
// requests (eight overall) earlier, so the first copy has finished and
// the repeat is a cache hit, never a collapsed flight. Every other
// request has a key not used before in the pass.
func serveWorkloadFor(seed int64, n int) *serveWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := &serveWorkload{reqs: make([]simd.Request, n), origin: make([]int, n)}
	seen := make(map[string]bool)
	fresh := 0
	for i := range w.reqs {
		if own := i / jobs; own >= 4 && own%4 == 3 { // own: position in this client's sequence
			j := i - jobs*(4+rng.Intn(own-3))
			w.reqs[i], w.origin[i] = w.reqs[j], w.origin[j]
			continue
		}
		for {
			r := freshRequest(fresh, rng)
			if k := r.Key(); !seen[k] {
				seen[k] = true
				w.reqs[i], w.origin[i] = r, i
				break
			}
		}
		fresh++
	}
	w.bodies = make([][]byte, n)
	for i, r := range w.reqs {
		b, err := json.Marshal(r)
		if err != nil {
			panic(err) // a Request always marshals
		}
		w.bodies[i] = b
	}
	return w
}

// freshRequest returns the f-th request shape with a seed from rng.
func freshRequest(f int, rng *rand.Rand) simd.Request {
	r := simd.Request{Protocol: serveProtocols[f/4%len(serveProtocols)], Seed: 1 + rng.Int63n(1<<20)}
	variant := f / 16
	switch f % 4 {
	case 0:
		r.Workload, r.Locks, r.Acquires = "locking", []int{2, 8, 32, 128}[variant%4], 8
	case 1:
		r.Workload, r.Barriers = "barrier", 2+variant%3
	case 2:
		r.Workload, r.Txns = "OLTP", 1+variant%2
	default:
		r.Workload, r.Txns = "SPECjbb", 1+variant%2
	}
	r.Normalize()
	return r
}

// daemon is one running simd instance on a loopback listener.
type daemon struct {
	base   string
	cancel context.CancelFunc
	done   chan error
}

// boot starts a memory-only daemon and waits for its first 200 from
// /readyz. Its cache holds every key of a pass, so no hit is lost to
// eviction; two clients never exceed its admission slots.
func boot() (*daemon, error) {
	d, err := simd.New(simd.Config{CacheEntries: 1 << 14})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &daemon{base: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- d.Serve(ctx, ln) }()
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("simd not ready after 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// shed scrapes /metrics for the daemon's 429 count.
func (s *daemon) shed() (uint64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "simd_shed_total "); ok {
			return strconv.ParseUint(v, 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("simd_shed_total missing from /metrics")
}

// stop drains the daemon and waits for Serve to return.
func (s *daemon) stop() error {
	s.cancel()
	return <-s.done
}

// newClient returns a client that keeps one connection open to the
// daemon, so a closed-loop client is one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// setup boots a daemon, sends the first request untimed, and shuts the
// daemon down again (each pass starts from an empty cache).
func (w *serveWorkload) setup(tr *tracer, parent int64) error {
	sp := tr.begin("simd.boot", parent)
	s, err := boot()
	tr.end(sp)
	if err != nil {
		return err
	}
	c := newClient()
	r := w.send(c, s.base, 0, &cpuMeter{}, tr, parent)
	c.CloseIdleConnections()
	if err := s.stop(); err != nil {
		return err
	}
	return r.err
}

// pass boots a fresh daemon (untimed), then times the two clients
// sending every request once.
func (w *serveWorkload) pass(tr *tracer, parent int64) (passResult, error) {
	bs := tr.begin("simd.boot", parent)
	s, err := boot()
	tr.end(bs)
	if err != nil {
		return passResult{}, err
	}
	p := passResult{units: make([]unitResult, len(w.reqs))}
	out := p.units
	m := &cpuMeter{}
	cpu := processCPU()
	sp := tr.begin("pass", parent)
	var wg sync.WaitGroup
	for c := 0; c < jobs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			for i := c; i < len(w.reqs); i += jobs {
				out[i] = w.send(cl, s.base, i, m, tr, sp.id)
			}
		}()
	}
	wg.Wait()
	p.wall = tr.end(sp).Seconds()
	p.cpu = (processCPU() - cpu).Seconds()
	for i, o := range w.origin {
		if o != i && out[i].err == nil && out[i].digest != out[o].digest {
			out[i].err = fmt.Errorf("%s: hit body differs from the miss body of %s", out[i].id, out[o].id)
		}
	}
	shed, err := s.shed()
	if stopErr := s.stop(); err == nil {
		err = stopErr
	}
	if err == nil && shed > 0 {
		err = fmt.Errorf("simd shed %d requests", shed)
	}
	return p, err
}

// send posts request i and reads the whole reply. A reply other than a
// 200, or a cache state other than the one the request's position
// implies, fails the unit.
func (w *serveWorkload) send(c *http.Client, base string, i int, m *cpuMeter, tr *tracer, parent int64) (r unitResult) {
	r = unitResult{id: fmt.Sprintf("r%04d", i), work: 1, hit: w.origin[i] != i}
	sp := tr.begin("request", parent)
	share := m.begin()
	defer func() {
		r.cpuMS = ms(m.end(share))
		r.ms = ms(tr.end(sp))
	}()
	state := "miss"
	if r.hit {
		state = "hit"
	}
	hs := tr.begin("simd.request."+state, sp.id)
	resp, err := c.Post(base+"/run", "application/json", bytes.NewReader(w.bodies[i]))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	tr.end(hs)
	switch {
	case err != nil:
		r.err = fmt.Errorf("%s: %w", r.id, err)
	case resp.StatusCode != http.StatusOK:
		r.err = fmt.Errorf("%s: status %d: %s", r.id, resp.StatusCode, bytes.TrimSpace(body))
	case resp.Header.Get("X-Simd-Cache") != state:
		r.err = fmt.Errorf("%s: cache %q, want %q", r.id, resp.Header.Get("X-Simd-Cache"), state)
	}
	sum := sha256.Sum256(body)
	r.digest = hex.EncodeToString(sum[:8])
	return r
}
