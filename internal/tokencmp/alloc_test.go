package tokencmp

import (
	"testing"

	"tokencmp/internal/counters"
	"tokencmp/internal/cpu"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/stats"
	"tokencmp/internal/token"
	"tokencmp/internal/topo"
)

// absorb drops every delivered message.
type absorb struct{}

func (absorb) Recv(*network.Message) {}

// TestTimeoutRetryDoesNotAllocate pins a TokenCMP-dst4 miss that no one
// answers at zero allocations: each of its four transient requests
// times out, the first three retry after a backoff drawn from the L1's
// PRNG, and the last timeout escalates to a persistent request.
func TestTimeoutRetryDoesNotAllocate(t *testing.T) {
	eng, sys := fullSystem(t, Dst4, nil)
	l1 := sys.L1Ds[0][0]
	for _, id := range sys.allEndpoints {
		if id != l1.id {
			sys.Net.Attach(id, absorb{})
		}
	}
	done := func(uint64) {}
	miss := func() {
		l1.Access(cpu.Load, 0x4000, 0, done)
		eng.Run(0)
		l1.Finish() // drop the miss the absorbed requests left outstanding
	}
	miss()
	if avg := testing.AllocsPerRun(100, miss); avg != 0 {
		t.Errorf("timed-out miss allocates %.2f per miss, want 0", avg)
	}
	// One warm-up miss, AllocsPerRun's own warm-up, then 100 measured.
	const misses = 102
	for c, want := range map[string]uint64{
		counters.ReqTransient:  4 * misses,
		counters.ReqTimeout:    4 * misses,
		counters.ReqRetry:      3 * misses,
		counters.ReqPersistent: misses,
	} {
		if got := sys.Ctrs.Value(c); got != want {
			t.Errorf("%s = %d, want %d", c, got, want)
		}
	}
}

// TestArbiterActivationDoesNotAllocate pins the arbiter-based scheme's
// persistent-request round at zero allocations on the Table 3 machine:
// the home arbiter activates a request and broadcasts the activation to
// all 51 other endpoints, each of which records it in its table; the
// requester's done then deactivates it everywhere.
func TestArbiterActivationDoesNotAllocate(t *testing.T) {
	eng, sys := fullSystem(t, Arb0, nil)
	const b = mem.Block(0x100)
	req := sys.L1Ds[1][2]
	home := sys.Geom.HomeMem(b)
	round := func() {
		for _, kind := range []int32{kArbRequest, kArbDone} {
			sys.Net.SendNew(network.Message{
				Src:       req.id,
				Dst:       home,
				Block:     b,
				Kind:      kind,
				Aux:       int32(token.ReqWrite),
				Proc:      int32(req.globalProc),
				Requestor: req.id,
			})
			eng.Run(0)
		}
	}
	round()
	before := sys.Net.Traffic.TotalMessages(stats.InterCMP) + sys.Net.Traffic.TotalMessages(stats.IntraCMP)
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("arbiter activation round allocates %.2f per round, want 0", avg)
	}
	if after := sys.Net.Traffic.TotalMessages(stats.InterCMP) + sys.Net.Traffic.TotalMessages(stats.IntraCMP); after-before < 101*2*51 {
		t.Errorf("%d messages in 101 rounds, want at least two 51-endpoint broadcasts per round", after-before)
	}
	for _, e := range endpointBases(sys) {
		if e.atable.Active(b) != nil {
			t.Errorf("%v still holds an activation after the last done", e.id)
		}
	}
}

// TestDistributedActivationDoesNotAllocate is the distributed-activation
// counterpart of TestArbiterActivationDoesNotAllocate: a TokenCMP-dst0
// L1 on the Table 3 machine inserts its persistent request and
// broadcasts it to all 51 other endpoints, each of which records it in
// its table, then deactivates it everywhere with a second broadcast.
func TestDistributedActivationDoesNotAllocate(t *testing.T) {
	eng, sys := fullSystem(t, Dst0, nil)
	const b = mem.Block(0x100)
	req := sys.L1Ds[1][2]
	round := func() {
		txn := l1Txn{reqKind: token.ReqWrite}
		req.issuePersistent(b, &txn)
		eng.Run(0)
		req.deactivatePersistent(b)
		eng.Run(0)
	}
	round()
	before := sys.Net.Traffic.TotalMessages(stats.InterCMP) + sys.Net.Traffic.TotalMessages(stats.IntraCMP)
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("distributed activation round allocates %.2f per round, want 0", avg)
	}
	if after := sys.Net.Traffic.TotalMessages(stats.InterCMP) + sys.Net.Traffic.TotalMessages(stats.IntraCMP); after-before < 101*2*51 {
		t.Errorf("%d messages in 101 rounds, want at least two 51-endpoint broadcasts per round", after-before)
	}
	if got := sys.Ctrs.Value(counters.ReqPersistent); got != 102 {
		t.Errorf("%s = %d, want one per round (102)", counters.ReqPersistent, got)
	}
	for _, e := range endpointBases(sys) {
		if e.dtable.Active(b) != nil {
			t.Errorf("%v still holds the request after the last deactivation", e.id)
		}
	}
}

// endpointBases returns the substrate state of every endpoint of sys.
func endpointBases(sys *System) []*base {
	var bases []*base
	for c := range sys.L1Ds {
		for p := range sys.L1Ds[c] {
			bases = append(bases, &sys.L1Ds[c][p].base, &sys.L1Is[c][p].base)
		}
		for _, l2 := range sys.L2s[c] {
			bases = append(bases, &l2.base)
		}
		bases = append(bases, &sys.Mems[c].base)
	}
	return bases
}

// predictorSink keeps a measured predictor on the heap.
var predictorSink *predictor

// TestPredictorAllocatesOnce pins the predictor's table inside its
// struct: a TokenCMP-dst1-pred machine makes exactly one allocation per
// L1D more than TokenCMP-dst1, one predictor each.
func TestPredictorAllocatesOnce(t *testing.T) {
	if avg := testing.AllocsPerRun(10, func() { predictorSink = newPredictor(1) }); avg != 1 {
		t.Errorf("newPredictor allocates %.0f times, want 1", avg)
	}
	build := func(v Variant) float64 {
		return testing.AllocsPerRun(3, func() { fullSystem(t, v, nil) })
	}
	g := topo.NewGeometry(4, 4, 4)
	if got, want := build(Dst1Pred)-build(Dst1), float64(g.TotalProcs()); got != want {
		t.Errorf("TokenCMP-dst1-pred builds %.0f objects more than TokenCMP-dst1, want %.0f (one predictor per L1D)", got, want)
	}
}
