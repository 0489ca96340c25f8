package mc_test

import (
	"fmt"

	"tokencmp/internal/mc"
	"tokencmp/internal/mc/models"
)

// Exhaustively verify the token-coherence correctness substrate on a
// small configuration: the Section 5 "flat correctness" argument in
// action. Because the model drives the performance-policy interface
// nondeterministically, the result covers every performance policy,
// including the hierarchical TokenCMP ones.
func Example_modelcheck() {
	cfg := models.TokenConfig{Caches: 3, T: 3, MaxMsgs: 2, Activate: models.DistributedAct}
	fmt.Printf("checking the token substrate: %d caches + memory, T=%d, ≤%d in-flight messages\n",
		cfg.Caches, cfg.T, cfg.MaxMsgs)
	res := mc.CheckOpt(models.NewTokenModel(cfg), mc.Options{})
	fmt.Printf("%s ok=%t states=%d transitions=%d diameter=%d\n",
		res.Model, res.OK(), res.States, res.Transitions, res.Diameter)
	if res.OK() {
		fmt.Println("safety (conservation, single writer, serial view), deadlock freedom,")
		fmt.Println("and starvation freedom hold in every reachable state.")
	}
	// Output:
	// checking the token substrate: 3 caches + memory, T=3, ≤2 in-flight messages
	// TokenCMP-dst ok=true states=44280 transitions=365063 diameter=17
	// safety (conservation, single writer, serial view), deadlock freedom,
	// and starvation freedom hold in every reachable state.
}
