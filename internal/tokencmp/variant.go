// Package tokencmp implements the TokenCMP protocol family (Section 4):
// performance policies layered over the flat token-coherence correctness
// substrate of internal/token. The policies are hierarchical — an L1 miss
// broadcasts only within its CMP; the L2 bank broadcasts to other CMPs
// and the home memory only on an L2 miss — while correctness remains flat
// token counting among all caches and memory controllers.
package tokencmp

// Activation selects the persistent-request activation mechanism (§3.2).
type Activation int

// Activation mechanisms.
const (
	Arbiter Activation = iota
	Distributed
)

func (a Activation) String() string {
	if a == Arbiter {
		return "arbiter"
	}
	return "distributed"
}

// Variant is one row of Table 1.
type Variant struct {
	Name string
	// MaxTransients is the number of transient requests (initial plus
	// retries) issued before the substrate escalates to a persistent
	// request. Zero means persistent-only (no performance policy).
	MaxTransients int
	Activation    Activation
	// Predictor enables the contended-block predictor that skips the
	// transient request entirely (TokenCMP-dst1-pred).
	Predictor bool
	// Filter enables the approximate L1-sharer directory used to filter
	// incoming external transient requests (TokenCMP-dst1-filt).
	Filter bool
}

func (v Variant) String() string { return v.Name }

// The Table 1 variants.
var (
	Arb0     = Variant{Name: "TokenCMP-arb0", MaxTransients: 0, Activation: Arbiter}
	Dst0     = Variant{Name: "TokenCMP-dst0", MaxTransients: 0, Activation: Distributed}
	Dst4     = Variant{Name: "TokenCMP-dst4", MaxTransients: 4, Activation: Distributed}
	Dst1     = Variant{Name: "TokenCMP-dst1", MaxTransients: 1, Activation: Distributed}
	Dst1Pred = Variant{Name: "TokenCMP-dst1-pred", MaxTransients: 1, Activation: Distributed, Predictor: true}
	Dst1Filt = Variant{Name: "TokenCMP-dst1-filt", MaxTransients: 1, Activation: Distributed, Filter: true}
)

// Variants returns all Table 1 rows in paper order.
func Variants() []Variant {
	return []Variant{Arb0, Dst0, Dst4, Dst1, Dst1Pred, Dst1Filt}
}
