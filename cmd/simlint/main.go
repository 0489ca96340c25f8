// Command simlint is the project's static-analysis driver: it runs the
// four analyzers that encode the simulator's load-bearing contracts —
// msgown (the network.Message borrowing rule), simdet
// (byte-identical determinism), schedalloc (allocation-free
// scheduling) and ctrreg (constant event-counter names) — over
// `go list` package patterns and exits non-zero if any finding
// survives the simlint:ignore directives.
//
// Usage:
//
//	go build -o bin/simlint ./cmd/simlint
//	bin/simlint ./...                 # whole tree (CI invocation)
//	bin/simlint -run msgown ./internal/hammercmp
//	bin/simlint -json ./... | jq .
//
// The analyzers are written against tokencmp/internal/lint/analysis, a
// stdlib-only stand-in for golang.org/x/tools/go/analysis (this module
// is deliberately dependency-free and builds offline). With x/tools
// available they would register with multichecker.Main unchanged and
// run under `go vet -vettool=$(which simlint)`; this driver is the
// CI-equivalent invocation: same loading semantics (export data via the
// go command's build cache), same exit-status contract as vet.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"tokencmp/internal/lint"
	"tokencmp/internal/lint/analysis"
	"tokencmp/internal/lint/ctrreg"
	"tokencmp/internal/lint/load"
	"tokencmp/internal/lint/msgown"
	"tokencmp/internal/lint/schedalloc"
	"tokencmp/internal/lint/simdet"
)

var all = []*analysis.Analyzer{msgown.Analyzer, simdet.Analyzer, schedalloc.Analyzer, ctrreg.Analyzer}

func main() {
	var (
		runNames = flag.String("run", "", "comma-separated analyzers to run (default: all)")
		asJSON   = flag.Bool("json", false, "emit findings as JSON")
		docs     = flag.Bool("doc", false, "print analyzer documentation and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [-run name,...] [-json] packages...\n\nanalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(os.Stderr, "  %-11s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *docs {
		for _, a := range all {
			fmt.Printf("# %s\n\n%s\n\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := all
	if *runNames != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*runNames, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "simlint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	fset, pkgs, err := load.Packages("", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}

	findings := lint.Run(fset, pkgs, analyzers)
	if *asJSON {
		type finding struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Message  string `json:"message"`
		}
		out := make([]finding, 0, len(findings))
		for _, f := range findings {
			out = append(out, finding{f.Analyzer, f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s: %s: %s\n", f.Pos, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
