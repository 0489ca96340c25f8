// Package lintutil holds the type-resolution helpers shared by the
// simlint analyzers: static callee resolution, named-type matching
// against the simulator packages, and closure free-variable analysis.
package lintutil

import (
	"go/ast"
	"go/types"
	"sort"
)

// Paths of the packages whose contracts the analyzers encode.
const (
	CountersPath = "tokencmp/internal/counters"
	NetworkPath  = "tokencmp/internal/network"
	SimPath      = "tokencmp/internal/sim"
	StatsPath    = "tokencmp/internal/stats"
)

// Callee resolves the statically-known function or method called by
// call, or nil for builtins, conversions, and dynamic calls through
// function values.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Qualified identifier: pkg.Func.
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// IsMethod reports whether fn is the method pkgPath.(recvName).methName
// (matching through pointers on the receiver).
func IsMethod(fn *types.Func, pkgPath, recvName, methName string) bool {
	if fn == nil || fn.Name() != methName || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return namedName(sig.Recv().Type()) == recvName
}

// MethodOn reports whether fn is any method on a type defined in
// pkgPath with the given receiver type name.
func MethodOn(fn *types.Func, pkgPath, recvName string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return namedName(sig.Recv().Type()) == recvName
}

// IsFunc reports whether fn is the package-level function pkgPath.name.
func IsFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// namedName returns the defined-type name behind t, unwrapping one
// pointer level, or "".
func namedName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// IsPtrToNamed reports whether t is *pkgPath.name.
func IsPtrToNamed(t types.Type, pkgPath, name string) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	return ok && n.Obj().Name() == name && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == pkgPath
}

// IsMessagePtr reports whether t is *network.Message.
func IsMessagePtr(t types.Type) bool {
	return IsPtrToNamed(t, NetworkPath, "Message")
}

// FreeVars returns the variables referenced inside lit but declared
// outside it (its captures), in deterministic order. Package-level
// variables and constants are not captures.
func FreeVars(info *types.Info, lit *ast.FuncLit) []*types.Var {
	seen := make(map[*types.Var]bool)
	var free []*types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || seen[v] {
			return true
		}
		if v.Parent() == nil || v.Parent() == types.Universe {
			return true
		}
		// Package-scope variables are shared state, not captures.
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true
		}
		// A variable declared inside the literal (params, results,
		// locals) is not free.
		if lit.Pos() <= v.Pos() && v.Pos() < lit.End() {
			return true
		}
		seen[v] = true
		free = append(free, v)
		return true
	})
	sort.Slice(free, func(i, j int) bool { return free[i].Pos() < free[j].Pos() })
	return free
}
