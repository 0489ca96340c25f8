// modelcheck regenerates the paper's Section 5 verification study: it
// exhaustively model-checks the three token-substrate variants, the
// simplified flat DirectoryCMP, and the HammerCMP broadcast race
// window, reporting reachable states, transitions, and model source
// size (the analog of the paper's TLA+ line counts). -protocol selects
// a subset (all, token, directory, or hammer); -caches, -tokens, and
// -msgs scale the verified configuration beyond the paper's default,
// and -cpuprofile/-memprofile capture checker profiles.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"tokencmp/internal/mc"
	"tokencmp/internal/mc/models"
	"tokencmp/internal/prof"
)

// modelLoC counts the non-comment lines of a model source file, given
// relative to the repository root. Run from anywhere else, the file is
// not found and the count reads "n/a".
func modelLoC(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "n/a"
	}
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		t := strings.TrimSpace(line)
		if t != "" && !strings.HasPrefix(t, "//") {
			n++
		}
	}
	return strconv.Itoa(n)
}

// config holds the flags validate checks.
type config struct {
	protocol                          string
	caches, tokens, msgs, limit, jobs int
	timeout                           time.Duration
}

// validate rejects flag values the checker cannot run. The packed
// encodings store caches, tokens, and message slots in single bytes
// (sharers in 30 bits), so configurations the layouts cannot carry are
// refused before a model constructor panics; a negative -limit, -jobs
// or -timeout is refused rather than read as its default.
func validate(c config) error {
	switch {
	case c.protocol != "all" && c.protocol != "token" && c.protocol != "directory" && c.protocol != "hammer":
		return fmt.Errorf("modelcheck: unknown -protocol %q (want all, token, directory, or hammer)", c.protocol)
	case c.caches < 2 || c.caches > 30:
		return fmt.Errorf("modelcheck: -caches must be in [2, 30]")
	case c.tokens < 1 || c.tokens > 254:
		return fmt.Errorf("modelcheck: -tokens must be in [1, 254]")
	case c.msgs < 0 || c.msgs > 60:
		return fmt.Errorf("modelcheck: -msgs must be in [0, 60]")
	case c.limit < 0:
		return fmt.Errorf("modelcheck: -limit must be >= 0")
	case c.jobs < 0:
		return fmt.Errorf("modelcheck: -jobs must be >= 0")
	case c.timeout < 0:
		return fmt.Errorf("modelcheck: -timeout must be >= 0")
	}
	return nil
}

func main() {
	var (
		caches   = flag.Int("caches", 3, "caches in every model (the paper's Section 5 scale is 3)")
		tokens   = flag.Int("tokens", 4, "tokens per block in the token models")
		msgs     = flag.Int("msgs", 0, "in-flight message bound (0 = per-model default: 2 token, 3 directory, 5 hammer)")
		limit    = flag.Int("limit", 0, "exact state-count cap (0 = the 5,000,000 default; must be >= 0)")
		jobs     = flag.Int("jobs", 0, "concurrent frontier-expansion workers (0 = one per CPU; must be >= 0)")
		symmetry = flag.Bool("symmetry", true, "canonicalize states under cache permutation (Ip&Dill scalarset-style reduction, up to caches! fewer states)")
		loss     = flag.Bool("loss", false, "token models: enable interconnect message loss with token recreation (verifies conservation modulo recreation)")
		protocol = flag.String("protocol", "all", "which models to check: all, token, directory, or hammer")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget shared by all checks (0 = none); on expiry each check reports the states explored so far as PARTIAL and the exit status is non-zero")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if err := validate(config{*protocol, *caches, *tokens, *msgs, *limit, *jobs, *timeout}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	bound := func(def int) int {
		if *msgs == 0 {
			return def
		}
		return *msgs
	}
	want := func(p string) bool { return *protocol == "all" || *protocol == p }

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	heading := map[string]string{
		"all":       "the correctness substrate vs a flat directory\nand the HammerCMP broadcast race window",
		"token":     "the token correctness substrate",
		"directory": "the flat DirectoryCMP protocol",
		"hammer":    "the HammerCMP broadcast race window",
	}
	fmt.Printf("Section 5: model checking %s\n", heading[*protocol])
	fmt.Println("(safety: token conservation / coherence invariant / serial view;")
	fmt.Println(" liveness: deadlock freedom and AG(pending → EF satisfied))")
	fmt.Printf("configuration: caches=%d tokens=%d msgs=", *caches, *tokens)
	if *msgs == 0 {
		fmt.Print("default")
	} else {
		fmt.Print(*msgs)
	}
	if *symmetry {
		fmt.Print(" symmetry=on")
	} else {
		fmt.Print(" symmetry=off")
	}
	if *loss {
		fmt.Println(" loss=on")
	} else {
		fmt.Println()
	}
	fmt.Println()

	ctx := context.Background()
	if *timeout > 0 {
		var cancelBudget context.CancelFunc
		ctx, cancelBudget = context.WithTimeout(ctx, *timeout)
		defer cancelBudget()
	}

	failed := false
	interrupted := false
	run := func(m mc.Model) {
		res := mc.CheckOpt(m, mc.Options{Limit: *limit, Jobs: *jobs, Symmetry: *symmetry, Context: ctx})
		if res.Interrupted {
			interrupted = true
		}
		note := ""
		if *symmetry && !res.Symmetry {
			// Requested but not applied: either the model declared no
			// symmetry (the distributed-activation model's fixed-priority
			// arbitration is not permutation-invariant) or the cache count
			// is beyond the reduction range.
			if sm, ok := m.(mc.Symmetric); ok && sm.Symmetry() != nil {
				note = fmt.Sprintf(", unreduced: caches > %d", mc.MaxSymmetryCaches)
			} else {
				note = ", unreduced: model not symmetric"
			}
		}
		fmt.Printf("%s (%.0f states/sec%s)\n", res, res.StatesPerSec(), note)
		if !res.OK() {
			failed = true
		}
	}
	if want("token") {
		for _, act := range []models.Activation{models.SafetyOnly, models.ArbiterAct, models.DistributedAct} {
			cfg := models.DefaultTokenConfig(act)
			cfg.Caches = *caches
			cfg.T = *tokens
			cfg.MaxMsgs = bound(cfg.MaxMsgs)
			cfg.Loss = *loss
			run(models.NewTokenModel(cfg))
		}
	}
	if want("directory") {
		run(models.NewDirModel(*caches, bound(3)))
	}
	if want("hammer") {
		run(models.NewHammerModel(*caches, bound(5)))
	}

	fmt.Println()
	fmt.Println("Model source size (non-comment lines; the paper reports 383/396 lines")
	fmt.Println("of TLA+ for TokenCMP-arb/dst vs 1025 for the simplified DirectoryCMP):")
	if want("token") {
		fmt.Printf("  token substrate models:   %s\n", modelLoC("internal/mc/models/token.go"))
	}
	if want("directory") {
		fmt.Printf("  flat directory model:     %s\n", modelLoC("internal/mc/models/directory.go"))
	}
	if want("hammer") {
		fmt.Printf("  flat hammer (broadcast):  %s\n", modelLoC("internal/mc/models/hammer.go"))
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "modelcheck: wall-clock budget %v exhausted; PARTIAL results above cover the explored prefix only\n", *timeout)
	}
	if failed || interrupted {
		stopProf()
		os.Exit(1)
	}
}
