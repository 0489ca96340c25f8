// Package msgown implements the simlint analyzer enforcing the
// network.Message borrowing rule at compile time.
//
// The rule (see tokencmp/internal/network): a protocol only ever
// borrows a message. The *network.Message parameter of a Recv method,
// an endpoint's one entry point, is valid for the length of that call,
// and the network reclaims the message when the call returns unless
// Recv deferred it with HandleAfter or HandleAt, which the network
// tracks itself. Sends take values, so protocol code never obtains a
// message it owns.
//
// A value is borrowed if it is that parameter, or a local assigned from
// a borrowed value. The analyzer reports every way a borrowed pointer
// can outlive the call:
//
//   - a store into a field, slice or map element, pointer target or
//     package variable;
//   - an element of a composite literal, or an argument to append;
//   - a channel send, or an argument of a go statement;
//   - the ctx or arg of Engine.ScheduleCall or ScheduleCallAt;
//   - capture by a closure that is scheduled, stored or started with go.
//
// These are exactly the retentions the -tags simdebug poison mode
// scrambles at runtime. The check is flow-insensitive (a local ever
// assigned a borrowed value is borrowed throughout) and does not follow
// the message into helper calls. It skips the network package itself,
// which implements the pool.
package msgown

import (
	"go/ast"
	"go/types"

	"tokencmp/internal/lint/analysis"
	"tokencmp/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "msgown",
	Doc:  "enforce the network.Message borrowing rule (no retention past Recv)",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Path() == lintutil.NetworkPath {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Recv != nil && fd.Body != nil && fd.Name.Name == "Recv" {
				check(pass, fd)
			}
		}
	}
	return nil, nil
}

// check reports every retention of a borrowed message in the Recv
// method fd.
func check(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	borrowed := make(map[*types.Var]bool)
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok && lintutil.IsMessagePtr(v.Type()) {
				borrowed[v] = true
			}
		}
	}
	if len(borrowed) == 0 {
		return
	}
	varOf := func(e ast.Expr) *types.Var {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if v, ok := info.Defs[id].(*types.Var); ok {
			return v
		}
		v, _ := info.Uses[id].(*types.Var)
		return v
	}
	borrowedIn := func(e ast.Expr) *types.Var {
		if v := varOf(e); v != nil && borrowed[v] {
			return v
		}
		return nil
	}

	// Locals assigned from a borrowed value are borrowed too; repeat
	// until alias chains settle.
	isPkgVar := func(v *types.Var) bool { return v.Pkg() != nil && v.Parent() == v.Pkg().Scope() }
	alias := func(lhs, rhs ast.Expr) bool {
		v := varOf(lhs)
		if v == nil || borrowed[v] || isPkgVar(v) || !lintutil.IsMessagePtr(v.Type()) || borrowedIn(rhs) == nil {
			return false
		}
		borrowed[v] = true
		return true
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						changed = alias(n.Lhs[i], n.Rhs[i]) || changed
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i := range n.Names {
						changed = alias(n.Names[i], n.Values[i]) || changed
					}
				}
			}
			return true
		})
	}

	report := func(e ast.Expr, how string) {
		if v := borrowedIn(e); v != nil {
			pass.Reportf(e.Pos(), "borrowed message %s %s; the network reclaims it when Recv returns", v.Name(), how)
		}
	}
	captures := func(e ast.Expr, how string) {
		lit, ok := ast.Unparen(e).(*ast.FuncLit)
		if !ok {
			return
		}
		for _, v := range lintutil.FreeVars(info, lit) {
			if borrowed[v] {
				pass.Reportf(lit.Pos(), "closure %s captures borrowed message %s; it runs after Recv returns and the network reclaims the message", how, v.Name())
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				break
			}
			for i, lhs := range n.Lhs {
				switch lhs := ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr:
					report(n.Rhs[i], "stored in a field")
				case *ast.IndexExpr:
					report(n.Rhs[i], "stored in a slice or map")
				case *ast.StarExpr:
					report(n.Rhs[i], "stored through a pointer")
				case *ast.Ident:
					if v := varOf(lhs); v != nil && isPkgVar(v) {
						report(n.Rhs[i], "stored in a package variable")
					}
				}
				captures(n.Rhs[i], "stored in a variable")
			}
		case *ast.ValueSpec:
			for _, val := range n.Values {
				captures(val, "stored in a variable")
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				report(el, "stored in a composite literal")
				captures(el, "stored in a composite literal")
			}
		case *ast.SendStmt:
			report(n.Value, "sent on a channel")
		case *ast.GoStmt:
			for _, arg := range n.Call.Args {
				report(arg, "passed to a goroutine")
			}
			captures(n.Call.Fun, "started as a goroutine")
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 1 {
				if _, builtin := info.Uses[id].(*types.Builtin); builtin {
					for _, arg := range n.Args[1:] {
						report(arg, "appended to a slice")
					}
				}
				break
			}
			fn := lintutil.Callee(info, n)
			for _, name := range [...]string{"ScheduleCall", "ScheduleCallAt"} {
				if !lintutil.IsMethod(fn, lintutil.SimPath, "Engine", name) || len(n.Args) != 4 {
					continue
				}
				captures(n.Args[1], "scheduled with "+name)
				// ScheduleCall(d, call, ctx, arg): the thunk sees ctx and
				// arg after the method has returned.
				report(n.Args[2], "passed to "+name)
				report(n.Args[3], "passed to "+name)
			}
		}
		return true
	})
}
