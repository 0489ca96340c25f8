package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"

	"tokencmp/internal/machine"
	"tokencmp/internal/stats"
)

// runDigest folds one run's runtime, event count, traffic at both
// levels and its full counter snapshot (sorted by name) into a short
// hex digest.
func runDigest(r machine.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "runtime=%d events=%d", r.Runtime, r.Events)
	for _, lvl := range []stats.Level{stats.IntraCMP, stats.InterCMP} {
		fmt.Fprintf(&b, " bytes%d=%d msgs%d=%d", lvl, r.Traffic.TotalBytes(lvl), lvl, r.Traffic.TotalMessages(lvl))
	}
	names := make([]string, 0, len(r.Counters))
	for k := range r.Counters {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Fprintf(&b, " %s=%d", k, r.Counters[k])
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// TestCounterDigests pins the counter totals of every protocol on the
// locking, OLTP and barrier workloads at DefaultSpec scale. The event
// fingerprints pin the delivery order, but a counter increment moved
// or dropped without touching a message shows up only here.
func TestCounterDigests(t *testing.T) {
	pins := map[string][3]string{ // protocol → locking, OLTP, barrier
		"DirectoryCMP":       {"687d41f9c47a09c9", "ead622bde5b87c8a", "482ed65749e1b541"},
		"DirectoryCMP-zero":  {"a959ba59fad9b1a7", "b352d193e4fde237", "bcc11b15a99ef7ef"},
		"HammerCMP":          {"c4bf6553481c644d", "d8e31aea6116039c", "f85025cac1f7f62a"},
		"TokenCMP-arb0":      {"5d3f1e216b6856a6", "741e5c1658248021", "009a2fefb5e0569c"},
		"TokenCMP-dst0":      {"95b5525cb007f093", "184e44b00f57dc3d", "8b8126ec8e3e5144"},
		"TokenCMP-dst4":      {"4c3764b2695eb1b4", "98e1175a18ff5d7b", "072f3662bbbca4bc"},
		"TokenCMP-dst1":      {"5b43c3fe977b83b5", "18eb18f3247af239", "01360a198accc125"},
		"TokenCMP-dst1-pred": {"39a266a3568b08b5", "f80aed6c0e10452e", "e7de21681fef9c8c"},
		"TokenCMP-dst1-filt": {"64e88a02407a35fd", "214d3acaae2b1eac", "6e5065d5b1492442"},
		"PerfectL2":          {"b10ac834d17f2933", "238dd1ccbe99fa26", "41de2dbe9d69440e"},
	}
	for _, proto := range machine.Protocols() {
		for w, name := range [...]string{"locking", "OLTP", "barrier"} {
			t.Run(proto+"/"+name, func(t *testing.T) {
				s := DefaultSpec()
				s.Protocol, s.Workload = proto, name
				res, _, err := s.run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if got, want := runDigest(res), pins[proto][w]; got != want {
					t.Errorf("digest = %s, want %s", got, want)
				}
			})
		}
	}
}

// trafficDigest folds one run's Figure 7 traffic, the bytes and the
// messages of every (level, class) cell, into a short hex digest.
func trafficDigest(tr *stats.Traffic) string {
	var b strings.Builder
	for l := stats.Level(0); l < stats.NumLevels; l++ {
		for c := stats.TrafficClass(0); c < stats.NumTrafficClasses; c++ {
			fmt.Fprintf(&b, "%v/%v bytes=%d msgs=%d\n", l, c, tr.Bytes[l][c], tr.Messages[l][c])
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// TestTrafficClassDigests pins the per-class traffic of every protocol
// on the locking, OLTP and barrier workloads at DefaultSpec scale.
// TestCounterDigests sees only each level's totals, so a message
// counted under the wrong Figure 7 class shows up only here.
func TestTrafficClassDigests(t *testing.T) {
	pins := map[string][3]string{ // protocol → locking, OLTP, barrier
		"DirectoryCMP":       {"c58bbe2301a8dd4e", "e23456cf3857d4c1", "b3ff1b8ba1544556"},
		"DirectoryCMP-zero":  {"0c9d0fba130cd7d8", "4c65eba13f3f585a", "451ae7273f3807c4"},
		"HammerCMP":          {"ca8628f578f8c60c", "fca7db9b0ecc9cac", "b611d2b7c634f7e2"},
		"TokenCMP-arb0":      {"5fcb30216316414a", "32ba6bb45aa809f3", "a37ee8488c56fae6"},
		"TokenCMP-dst0":      {"0a1175497ce0a16a", "e511ce633f46565e", "a858a0a2a81335ea"},
		"TokenCMP-dst4":      {"898f28b3c57f0766", "dae5791433e62146", "e403bb5911019820"},
		"TokenCMP-dst1":      {"0a442f4438537c48", "c8d4c54d189510d3", "d1ef1060a5177e6a"},
		"TokenCMP-dst1-pred": {"6f5918cd138ccc5c", "4d4d4448861ac18d", "9efde11dcfc80b1f"},
		"TokenCMP-dst1-filt": {"4c0329ffdeeb7f8d", "75659c2adef6b1be", "b7ee2562c181ba59"},
		"PerfectL2":          {"b13ddafcfd4cbe9e", "b13ddafcfd4cbe9e", "b13ddafcfd4cbe9e"},
	}
	for _, proto := range machine.Protocols() {
		for w, name := range [...]string{"locking", "OLTP", "barrier"} {
			t.Run(proto+"/"+name, func(t *testing.T) {
				s := DefaultSpec()
				s.Protocol, s.Workload = proto, name
				res, _, err := s.run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if got, want := trafficDigest(&res.Traffic), pins[proto][w]; got != want {
					t.Errorf("digest = %s, want %s", got, want)
				}
			})
		}
	}
}
