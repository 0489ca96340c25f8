package mc_test

import (
	"testing"

	"tokencmp/internal/mc"
	"tokencmp/internal/mc/models"
)

// TestHammerFlat explores the HammerCMP broadcast-race model: every
// interleaving of one broadcast's probes, acks, data, and stale
// speculative memory response with silent stores, upgrades, departing
// writebacks, and the next queued broadcast. It must reach no state
// with two owners, a readable stale copy, or a lost latest value, and
// must stay deadlock- and starvation-free.
func TestHammerFlat(t *testing.T) {
	m := models.DefaultHammerModel()
	if testing.Short() {
		m = models.NewHammerModel(2, 5)
	}
	res := mc.CheckOpt(m, mc.Options{})
	t.Log(res)
	if !res.OK() {
		t.Fatalf("hammer broadcast model failed: %v", res)
	}
}
