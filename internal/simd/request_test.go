package simd

import (
	"context"
	"encoding/json"
	"testing"

	"tokencmp/internal/experiments"
	"tokencmp/internal/machine"
	"tokencmp/internal/stats"
)

var fuzzWorkloads = []string{"locking", "barrier", "OLTP", "Apache", "SPECjbb"}

// FuzzRequestKey checks the cache-key contract on pairs of requests: b
// is a with one field (chosen by field) moved by delta and with its own
// deadline. Once both are normalized and valid, their keys must be equal
// exactly when their specs are, and the deadline must never reach the
// key.
func FuzzRequestKey(f *testing.F) {
	f.Add(uint8(0), uint8(0), 32, 64, 20, 40, 4, 4, 4, int64(1), 1, false, 0, uint8(0), 0)
	f.Add(uint8(3), uint8(1), 2, 4, 3, 5, 2, 2, 1, int64(7), 3, true, 500, uint8(12), 250)
	f.Add(uint8(7), uint8(2), 0, 0, 0, 2, 0, 0, 0, int64(0), 0, false, 0, uint8(5), 1)
	f.Fuzz(func(t *testing.T, proto, wl uint8, locks, acquires, barriers, txns, cmps, procs, banks int,
		seed int64, seeds int, check bool, timeout int, field uint8, delta int) {
		protos := machine.Protocols()
		a := Request{
			Protocol: protos[int(proto)%len(protos)], Workload: fuzzWorkloads[int(wl)%len(fuzzWorkloads)],
			Locks: locks, Acquires: acquires, Barriers: barriers, Txns: txns,
			CMPs: cmps, Procs: procs, Banks: banks, Seed: seed, Seeds: seeds, Check: check,
		}
		b := a
		b.TimeoutMS = timeout
		switch field % 13 {
		case 0:
			b.Protocol = protos[(int(proto)+delta%len(protos)+len(protos))%len(protos)]
		case 1:
			b.Workload = fuzzWorkloads[(int(wl)+delta%len(fuzzWorkloads)+len(fuzzWorkloads))%len(fuzzWorkloads)]
		case 2:
			b.Locks += delta
		case 3:
			b.Acquires += delta
		case 4:
			b.Barriers += delta
		case 5:
			b.Txns += delta
		case 6:
			b.CMPs += delta
		case 7:
			b.Procs += delta
		case 8:
			b.Banks += delta
		case 9:
			b.Seed += int64(delta)
		case 10:
			b.Seeds += delta
		case 11:
			b.Check = b.Check != (delta%2 != 0)
		}
		a.Normalize()
		b.Normalize()
		if a.Validate(false) != nil || b.Validate(false) != nil {
			return
		}
		if sameKey, sameSpec := a.Key() == b.Key(), a.Spec() == b.Spec(); sameKey != sameSpec {
			t.Fatalf("keys equal = %t but specs equal = %t:\n a %+v -> %s\n b %+v -> %s",
				sameKey, sameSpec, a, a.Key(), b, b.Key())
		}
		c := a
		c.TimeoutMS = timeout + 1
		if c.Key() != a.Key() {
			t.Fatalf("TimeoutMS reached the key: %s vs %s", a.Key(), c.Key())
		}
	})
}

// TestResponseMatchesSpecCell pins that a simd response is the Cell of
// the request's Spec from experiments.RunCells: the daemon and the
// sweeps fold the same runs the same way.
func TestResponseMatchesSpecCell(t *testing.T) {
	req := Request{Protocol: "HammerCMP", Workload: "locking", Locks: 2, Acquires: 4,
		CMPs: 2, Procs: 2, Banks: 1, Seed: 5, Seeds: 3, Check: true}
	req.Normalize()
	body, err := runRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var got Response
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	cells, err := experiments.RunCells(context.Background(), []experiments.Spec{req.Spec()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := cells[0]
	want := Response{
		Protocol: req.Protocol, Workload: req.Workload, Runs: c.Runtime.N(),
		RuntimeNS: c.Runtime.Mean(), RuntimeCI: c.Runtime.CI95(),
		Events: c.Events, Misses: c.Misses, Persistent: c.Persist,
		Acquires: c.Acquires, Violations: c.Violations,
		IntraBytes: c.Traffic.TotalBytes(stats.IntraCMP), IntraMsgs: c.Traffic.TotalMessages(stats.IntraCMP),
		InterBytes: c.Traffic.TotalBytes(stats.InterCMP), InterMsgs: c.Traffic.TotalMessages(stats.InterCMP),
	}
	if got != want {
		t.Errorf("response differs from the spec's cell:\n got %+v\nwant %+v", got, want)
	}
	if got.Runs != 3 || got.Acquires != 3*2*2*4 {
		t.Errorf("response does not cover three seeds of the workload: %+v", got)
	}
}
