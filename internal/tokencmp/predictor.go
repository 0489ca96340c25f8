package tokencmp

import (
	"math/rand"

	"tokencmp/internal/mem"
)

// Predictor geometry: 256 entries, four ways.
const (
	predWays = 4
	predSets = 256 / predWays
)

// predictor is TokenCMP-dst1-pred's contended-block detector: a four-way
// set-associative, 256-entry table of 2-bit saturating counters. A
// counter is allocated and incremented when a transient request times
// out; a saturated counter predicts contention and the L1 issues a
// persistent request immediately, skipping the transient. Counters reset
// pseudo-randomly to adapt to phase changes (Section 4).
//
// The table lives in fixed arrays inside the struct, so building a
// predictor is one allocation.
type predictor struct {
	tags    [predSets][predWays]mem.Block
	valid   [predSets][predWays]bool
	counter [predSets][predWays]uint8
	lru     [predSets][predWays]uint64
	tick    uint64

	// rng resets counters. It is built from seed on the first draw:
	// most predictors never find a counter to reset.
	rng  *rand.Rand
	seed int64
}

func newPredictor(seed int64) *predictor { return &predictor{seed: seed} }

func (p *predictor) setOf(b mem.Block) int { return int(uint64(b) % predSets) }

func (p *predictor) find(b mem.Block) (set, way int, ok bool) {
	set = p.setOf(b)
	for w := range predWays {
		if p.valid[set][w] && p.tags[set][w] == b {
			return set, w, true
		}
	}
	return set, 0, false
}

// NoteTimeout allocates/increments the counter for b after a transient
// request timed out.
func (p *predictor) NoteTimeout(b mem.Block) {
	set, way, ok := p.find(b)
	if !ok {
		// Allocate the LRU (or first invalid) way.
		way = 0
		for w := range predWays {
			if !p.valid[set][w] {
				way = w
				break
			}
			if p.lru[set][w] < p.lru[set][way] {
				way = w
			}
		}
		p.valid[set][way] = true
		p.tags[set][way] = b
		p.counter[set][way] = 0
	}
	if p.counter[set][way] < 3 {
		p.counter[set][way]++
	}
	p.tick++
	p.lru[set][way] = p.tick
}

// Contended predicts whether a request for b should go persistent
// immediately. Each query pseudo-randomly resets the counter with small
// probability to allow adaptation.
func (p *predictor) Contended(b mem.Block) bool {
	set, way, ok := p.find(b)
	if !ok {
		return false
	}
	p.tick++
	p.lru[set][way] = p.tick
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.seed))
	}
	if p.rng.Intn(64) == 0 {
		p.counter[set][way] = 0
		return false
	}
	return p.counter[set][way] >= 2
}
