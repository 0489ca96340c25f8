// Package lint runs the simlint analyzers over loaded packages and
// applies simlint:ignore suppression directives.
//
// The four analyzers encode the simulator's load-bearing contracts as
// compile-time checks (see the package docs of msgown, simdet,
// schedalloc and ctrreg). This package is the thin shared layer between
// the cmd/simlint driver and the analysistest harness: it applies a
// list of analyzers to a list of packages, collects diagnostics in
// positional order, and drops any diagnostic suppressed by a directive
// comment.
//
// # Suppression directives
//
//	foo()            //simlint:ignore simdet wall-clock throughput only
//	//simlint:ignore msgown,schedalloc justification
//	bar()
//
// A directive names one or more analyzers (comma-separated; everything
// after the names is free-form justification) and suppresses their
// diagnostics on its own line, or — when the comment stands alone — on
// the line below. Suppressions are deliberate, reviewable exceptions:
// the mc checker's wall-clock states/sec reporting is the canonical
// example.
package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"tokencmp/internal/lint/analysis"
	"tokencmp/internal/lint/load"
)

// A Finding is one diagnostic from one analyzer, positioned.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// Run applies analyzers to pkgs and returns the unsuppressed findings
// in (file, line, column, analyzer) order. Analyzer Run errors are
// returned as findings against the package so a driver never silently
// drops a broken analyzer.
func Run(fset *token.FileSet, pkgs []*load.Package, analyzers []*analysis.Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		ignores := ignoresIn(fset, pkg.Files)
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Pkg,
				TypesInfo: pkg.Info,
			}
			pass.Report = func(d analysis.Diagnostic) {
				pos := fset.Position(d.Pos)
				if ignores.suppressed(a.Name, pos) {
					return
				}
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
			if _, err := a.Run(pass); err != nil {
				findings = append(findings, Finding{
					Analyzer: a.Name,
					Pos:      token.Position{Filename: pkg.ImportPath},
					Message:  "analyzer error: " + err.Error(),
				})
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

// ignoreSet records, per file and line, which analyzers are suppressed.
type ignoreSet map[string]map[int][]string

func (s ignoreSet) suppressed(analyzer string, pos token.Position) bool {
	lines := s[pos.Filename]
	for _, name := range lines[pos.Line] {
		if name == analyzer || name == "all" {
			return true
		}
	}
	return false
}

const directive = "simlint:ignore"

// ignoresIn scans file comments for simlint:ignore directives. A
// directive comment on a line with code suppresses that line; a
// stand-alone directive comment suppresses the first code line after
// the comment group.
func ignoresIn(fset *token.FileSet, files []*ast.File) ignoreSet {
	set := make(ignoreSet)
	add := func(file string, line int, names []string) {
		m := set[file]
		if m == nil {
			m = make(map[int][]string)
			set[file] = m
		}
		m[line] = append(m[line], names...)
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Slash)
				end := fset.Position(cg.End())
				// Heuristic for "stand-alone comment": the comment
				// starts at the beginning of its line (nothing but
				// whitespace before it would give a column near 1 only
				// for unindented comments, so compare against the
				// group's own extent instead): a directive whose line
				// holds no code applies to the line after the group.
				if standalone(fset, f, pos.Line) {
					add(pos.Filename, end.Line+1, names)
				} else {
					add(pos.Filename, pos.Line, names)
				}
			}
		}
	}
	return set
}

// standalone reports whether line holds only comment text — i.e. no
// non-comment token of f is positioned on it.
func standalone(fset *token.FileSet, f *ast.File, line int) bool {
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || found {
			return false
		}
		if _, isComment := n.(*ast.Comment); isComment {
			return false
		}
		if _, isGroup := n.(*ast.CommentGroup); isGroup {
			return false
		}
		// Only leaf-ish tokens matter; an enclosing node spans many lines.
		switch n.(type) {
		case *ast.Ident, *ast.BasicLit:
			if fset.Position(n.Pos()).Line == line {
				found = true
				return false
			}
		}
		return true
	})
	return !found
}

// parseDirective extracts the analyzer names from a
// "//simlint:ignore name1,name2 justification" comment.
func parseDirective(text string) ([]string, bool) {
	i := strings.Index(text, directive)
	if i < 0 {
		return nil, false
	}
	rest := strings.TrimSpace(text[i+len(directive):])
	if rest == "" {
		return []string{"all"}, true
	}
	fields := strings.Fields(rest)
	var names []string
	for _, n := range strings.Split(fields[0], ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return []string{"all"}, true
	}
	return names, true
}
