package tokencmp

import "tokencmp/internal/sim"

// Config holds what a TokenCMP system adds to the Table 3 hierarchy
// (package hier).
type Config struct {
	Variant Variant

	// Seed perturbs pseudo-random choices (retry backoff, predictor
	// reset), implementing the Alameldeen-Wood perturbation methodology.
	Seed int64

	// DisableMigratory turns off the migratory-sharing optimization.
	// Exactly as the paper argues (§5), this is a pure performance-policy
	// change — the number of tokens returned to a read request — and
	// cannot affect correctness.
	DisableMigratory bool
}

// DefaultConfig returns the target-system settings for a variant.
func DefaultConfig(v Variant) Config {
	return Config{Variant: v, Seed: 1}
}

// initialTimeout seeds the per-L1 timeout estimator before any memory
// response has been observed.
const initialTimeout = 400 * sim.Nanosecond
