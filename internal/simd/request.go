// Package simd implements the simulation-as-a-service daemon: an
// HTTP/JSON front end over the deterministic simulator in
// internal/machine. Identical requests are collapsed onto one
// underlying run by a singleflight result cache (LRU + TTL), admission
// is bounded so overload sheds with 429 instead of queueing without
// limit, every request carries a wall-clock deadline that aborts the
// engine within sim.CancelCheckEvery events, worker panics are
// isolated to a 500 for the offending request, and shutdown drains
// in-flight runs before cancelling whatever remains.
//
// The serving layer is deliberately outside the deterministic core:
// it may read the wall clock (deadlines, TTLs) precisely because no
// simulation result ever depends on it — a request's response bytes
// are a pure function of its cache key.
package simd

import (
	"cmp"
	"fmt"
	"sort"
	"strings"

	"tokencmp/internal/experiments"
	"tokencmp/internal/machine"
	"tokencmp/internal/topo"
)

// Chaos workload names, accepted only when Config.Chaos is set. They
// exercise the daemon's failure paths (panic isolation, deadline
// aborts) in tests and CI smoke checks without touching the simulator.
const (
	ChaosPanic = "__panic" // the run panics immediately
	ChaosHang  = "__hang"  // the run blocks until its context is cancelled
)

// Request is one simulation experiment. The zero value of every field
// is replaced by the same default the mcsim command uses, so a request
// body of {"protocol":"TokenCMP-dst1"} is a complete experiment.
//
// TimeoutMS is serving policy, not experiment identity: it is excluded
// from the cache key, so two requests that differ only in their
// deadline share one underlying run and one cached body.
type Request struct {
	Protocol string `json:"protocol"`
	Workload string `json:"workload"` // locking, barrier, OLTP, Apache, SPECjbb
	Locks    int    `json:"locks"`    // locking: number of locks
	Acquires int    `json:"acquires"` // locking: acquires per processor
	Barriers int    `json:"barriers"` // barrier: rounds
	Txns     int    `json:"txns"`     // commercial: transactions per processor
	CMPs     int    `json:"cmps"`
	Procs    int    `json:"procs"`
	Banks    int    `json:"banks"`
	Seed     int64  `json:"seed"`
	Seeds    int    `json:"seeds"`
	Check    bool   `json:"check"` // enable coherence monitors + token audit

	TimeoutMS int `json:"timeout_ms"` // per-request deadline (0 = server default)
}

// Normalize fills defaulted fields in place from experiments.DefaultSpec,
// the defaults mcsim's flags use too, so the daemon and the CLI answer
// the same question the same way.
func (r *Request) Normalize() {
	d := experiments.DefaultSpec()
	r.Protocol = cmp.Or(r.Protocol, d.Protocol)
	r.Workload = cmp.Or(r.Workload, d.Workload)
	r.Locks = cmp.Or(r.Locks, d.Locks)
	r.Acquires = cmp.Or(r.Acquires, d.Acquires)
	r.Barriers = cmp.Or(r.Barriers, d.Barriers)
	r.Txns = cmp.Or(r.Txns, d.Txns)
	r.CMPs = cmp.Or(r.CMPs, d.Geom.CMPs)
	r.Procs = cmp.Or(r.Procs, d.Geom.ProcsPerCMP)
	r.Banks = cmp.Or(r.Banks, d.Geom.L2Banks)
	r.Seed = cmp.Or(r.Seed, d.Seed)
	r.Seeds = cmp.Or(r.Seeds, d.Seeds)
}

// Spec is the experiment the request describes: every field but
// TimeoutMS, on a reliable network with barrier work unjittered.
func (r *Request) Spec() experiments.Spec {
	return experiments.Spec{
		Protocol: r.Protocol,
		Geom:     topo.NewGeometry(r.CMPs, r.Procs, r.Banks),
		Workload: r.Workload,
		Locks:    r.Locks,
		Acquires: r.Acquires,
		Barriers: r.Barriers,
		Txns:     r.Txns,
		Seed:     r.Seed,
		Seeds:    r.Seeds,
		Check:    r.Check,
	}
}

// workloads the daemon accepts (chaos names are gated separately).
var workloads = map[string]bool{
	"locking": true, "barrier": true,
	"OLTP": true, "Apache": true, "SPECjbb": true,
}

// Validate rejects requests the simulator cannot run or that would be
// unreasonably large for a shared daemon. chaos admits the synthetic
// failure workloads used by tests.
func (r *Request) Validate(chaos bool) error {
	protoOK := false
	for _, p := range machine.Protocols() {
		if p == r.Protocol {
			protoOK = true
			break
		}
	}
	if !protoOK {
		return fmt.Errorf("unknown protocol %q (known: %s)", r.Protocol, strings.Join(machine.Protocols(), ", "))
	}
	switch {
	case workloads[r.Workload]:
	case (r.Workload == ChaosPanic || r.Workload == ChaosHang) && chaos:
	default:
		names := make([]string, 0, len(workloads))
		for w := range workloads {
			names = append(names, w)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (known: %s)", r.Workload, strings.Join(names, ", "))
	}
	bounds := []struct {
		name      string
		v, lo, hi int
	}{
		{"locks", r.Locks, 1, 1 << 12},
		{"acquires", r.Acquires, 1, 1 << 16},
		{"barriers", r.Barriers, 1, 1 << 12},
		{"txns", r.Txns, 1, 1 << 12},
		{"cmps", r.CMPs, 1, 16},
		{"procs", r.Procs, 1, 16},
		{"banks", r.Banks, 1, 16},
		{"seeds", r.Seeds, 1, 64},
		{"timeout_ms", r.TimeoutMS, 0, 1 << 22},
	}
	for _, b := range bounds {
		if b.v < b.lo || b.v > b.hi {
			return fmt.Errorf("%s = %d out of range [%d, %d]", b.name, b.v, b.lo, b.hi)
		}
	}
	return nil
}

// EstimatedOps approximates the work a normalized request will do:
// per-processor operation count for its workload family, times the
// total processors, times the seeds, doubled when the coherence
// monitors and token audit are on. It is a pure function of the
// request, so the admission class it induces is stable across
// retries, restarts, and replicas.
func (r *Request) EstimatedOps() int64 {
	perProc := int64(r.Acquires)
	switch r.Workload {
	case "barrier":
		perProc = int64(r.Barriers)
	case "OLTP", "Apache", "SPECjbb":
		perProc = int64(r.Txns)
	}
	ops := int64(r.Seeds) * perProc * int64(r.CMPs*r.Procs)
	if r.Check {
		ops *= 2
	}
	return ops
}

// Class buckets the request for admission: at or above threshold
// estimated ops it competes in the heavy pool, below it in the light
// one. threshold <= 0 disables the split (everything is light).
func (r *Request) Class(threshold int64) Class {
	if threshold > 0 && r.EstimatedOps() >= threshold {
		return ClassHeavy
	}
	return ClassLight
}

// Key is the cache identity of the experiment: the canonical encoding
// of its Spec, so it holds every field that can change the simulation
// result and nothing else (TimeoutMS steers serving, not simulation).
// Two requests with equal keys are guaranteed byte-identical response
// bodies because the simulator is deterministic in exactly these
// inputs. A change to the encoding changes every key, so entries a
// durable cache wrote under an older encoding are never served.
func (r *Request) Key() string {
	return "v2|" + r.Spec().Key()
}
