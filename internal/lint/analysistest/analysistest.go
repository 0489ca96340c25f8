// Package analysistest runs a simlint analyzer over testdata packages
// and checks its diagnostics against `// want` expectations, in the
// style of golang.org/x/tools/go/analysis/analysistest (the stdlib-only
// stand-in for it; see tokencmp/internal/lint/analysis).
//
// Testdata packages live under the analyzer's testdata/src directory.
// Because `testdata` directories are invisible to go build wildcards,
// the packages are real in-module packages that may import the actual
// tokencmp/internal/{network,sim,...} types — the analyzers therefore
// run in the tests against exactly the types they match in production —
// yet never leak into ordinary builds.
//
// An expectation is a comment on the offending line:
//
//	c.last = m // want `borrowed message m stored in a field`
//
// Each string literal after `want` (quoted or backquoted) is a regular
// expression that must match one diagnostic reported on that line;
// diagnostics and expectations must match up exactly in both
// directions.
package analysistest

import (
	"fmt"
	"go/scanner"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tokencmp/internal/lint"
	"tokencmp/internal/lint/analysis"
	"tokencmp/internal/lint/load"
)

// Run loads each testdata package pattern (resolved relative to the
// test's working directory, i.e. the analyzer package directory) and
// checks a's diagnostics against the packages' want comments.
func Run(t *testing.T, a *analysis.Analyzer, patterns ...string) {
	t.Helper()
	fset, pkgs, err := load.Packages("", patterns...)
	if err != nil {
		t.Fatalf("loading %v: %v", patterns, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages matched %v", patterns)
	}
	findings := lint.Run(fset, pkgs, []*analysis.Analyzer{a})

	type key struct {
		file string
		line int
	}
	expected := make(map[key][]*regexp.Regexp)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := fset.Position(c.Slash)
					res, err := parseWant(c.Text)
					if err != nil {
						t.Fatalf("%s:%d: %v", pos.Filename, pos.Line, err)
					}
					for _, re := range res {
						k := key{pos.Filename, pos.Line}
						expected[k] = append(expected[k], re)
					}
				}
			}
		}
	}

	for _, f := range findings {
		k := key{f.Pos.Filename, f.Pos.Line}
		res := expected[k]
		matched := -1
		for i, re := range res {
			if re.MatchString(f.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("%s:%d: unexpected diagnostic: %s", rel(f.Pos.Filename), f.Pos.Line, f.Message)
			continue
		}
		expected[k] = append(res[:matched], res[matched+1:]...)
	}
	for k, res := range expected {
		for _, re := range res {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", rel(k.file), k.line, re)
		}
	}
}

// rel trims the working directory off absolute testdata paths for
// readable failure output.
func rel(path string) string {
	if r, err := filepath.Rel(".", path); err == nil && !strings.HasPrefix(r, "..") {
		return r
	}
	return path
}

// parseWant extracts the regexps from a want comment (each expectation
// a quoted or backquoted Go string literal). It returns nil, and no
// error, for comments without a want marker.
func parseWant(text string) ([]*regexp.Regexp, error) {
	body, ok := strings.CutPrefix(text, "//")
	if !ok {
		return nil, nil // /* */ comments are not expectation carriers
	}
	body = strings.TrimSpace(body)
	rest, ok := strings.CutPrefix(body, "want ")
	if !ok {
		return nil, nil
	}
	// Tokenize the remainder as Go string literals.
	var sc scanner.Scanner
	fs := token.NewFileSet()
	file := fs.AddFile("want", -1, len(rest))
	sc.Init(file, []byte(rest), nil, 0)
	var res []*regexp.Regexp
	for {
		_, tok, lit := sc.Scan()
		if tok == token.EOF || tok == token.SEMICOLON {
			break
		}
		if tok != token.STRING {
			return nil, fmt.Errorf("want comment: expected string literal, got %v %q", tok, lit)
		}
		s, err := strconv.Unquote(lit)
		if err != nil {
			return nil, fmt.Errorf("want comment: %v", err)
		}
		re, err := regexp.Compile(s)
		if err != nil {
			return nil, fmt.Errorf("want comment: bad regexp %q: %v", s, err)
		}
		res = append(res, re)
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("want comment carries no expectations")
	}
	return res, nil
}
