package machine

import (
	"go/ast"
	"go/parser"
	gotoken "go/token"
	"path/filepath"
	"strings"
	"testing"

	"tokencmp/internal/network"
)

// TestKindTablesNameEveryKind checks the kind table each stack installs
// on its network against the message kinds its msgs.go declares: every
// kind constant has a row, and the row's name is the constant's name
// without its k prefix. A kind left out of the table would be counted
// as Response Data, protected from faults and named "kind(n)" in panics.
//
// It also states the §3 split between the correctness substrate and the
// performance policy as data: in TokenCMP exactly the persistent-table
// kinds act on arrival at every controller, and a response acts on
// arrival at an L1; every other kind, and every DirectoryCMP and
// HammerCMP kind, waits out each controller's access latency.
func TestKindTablesNameEveryKind(t *testing.T) {
	for _, tc := range []struct {
		proto, pkg string
		prompt     map[string]network.Controllers // by kind name
	}{
		{"DirectoryCMP", "directory", nil},
		{"HammerCMP", "hammercmp", nil},
		{"TokenCMP-dst1", "tokencmp", map[string]network.Controllers{
			"Response":       network.AtL1,
			"Persistent":     network.AtAll,
			"PersistentDone": network.AtAll,
			"ArbActivate":    network.AtAll,
			"ArbDeactivate":  network.AtAll,
		}},
	} {
		t.Run(tc.pkg, func(t *testing.T) {
			m, err := New(smallCfg(tc.proto))
			if err != nil {
				t.Fatal(err)
			}
			consts := kindConsts(t, filepath.Join("..", tc.pkg, "msgs.go"))
			if got := len(m.net.Kinds); got != len(consts) {
				t.Errorf("kind table has %d rows, msgs.go declares %d kinds", got, len(consts))
			}
			for k, c := range consts {
				if got, want := m.net.Kinds.Name(int32(k)), strings.TrimPrefix(c, "k"); got != want {
					t.Errorf("kind %s (%d) is named %q, want %q", c, k, got, want)
				}
			}
			for _, row := range m.net.Kinds {
				if want := tc.prompt[row.Name]; row.Prompt != want {
					t.Errorf("kind %s is prompt at %03b, want %03b", row.Name, row.Prompt, want)
				}
			}
		})
	}
}

// kindConsts returns the message kinds declared in the msgs.go at path:
// the names of its const block that starts at iota, in value order.
func kindConsts(t *testing.T, path string) []string {
	t.Helper()
	f, err := parser.ParseFile(gotoken.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != gotoken.CONST {
			continue
		}
		first := gd.Specs[0].(*ast.ValueSpec)
		if len(first.Values) != 1 || !strings.HasPrefix(first.Names[0].Name, "k") {
			continue
		}
		if id, ok := first.Values[0].(*ast.Ident); !ok || id.Name != "iota" {
			continue
		}
		var names []string
		for i, s := range gd.Specs {
			vs := s.(*ast.ValueSpec)
			if len(vs.Names) != 1 || (i > 0 && len(vs.Values) != 0) {
				t.Fatalf("%s: kind %s is not the next iota value", path, vs.Names[0].Name)
			}
			names = append(names, vs.Names[0].Name)
		}
		return names
	}
	t.Fatalf("%s declares no message kinds", path)
	return nil
}
