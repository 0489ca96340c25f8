// Package msgown implements the simlint analyzer enforcing the
// network.Message pool-ownership contract at compile time.
//
// The contract (see tokencmp/internal/network): the network owns every
// message it delivers — after an Endpoint's Recv returns, the message
// is reclaimed and its memory reused. A handler that must hold a
// message past Recv takes it over with Hold during Recv (or takes a
// pooled copy with CopyOf) and hands it back to the network: to
// HandleAfter, which defers its handling and frees it afterwards, or
// to Send. Conversely, Send, SendAfter, HandleAfter, HandleAt and Free
// all transfer a caller-owned message back to the network, so the
// caller must not touch it afterwards.
//
// The analyzer is flow-sensitive over each function body and tracks
// three ownership classes for *network.Message values:
//
//   - borrowed: the parameter of a Recv method. Flagged: Send,
//     SendAfter, HandleAfter, HandleAt or Free of it; storing it into a
//     field, slice element, map entry or composite literal; capturing
//     it in a closure that is scheduled, started as a goroutine, or
//     stored; and passing it as the ctx/arg of Engine.ScheduleCall —
//     all of these retain the pointer past Recv, which is exactly what
//     the -tags simdebug poison mode scrambles at runtime.
//   - owned: the result of Network.NewMessage or Network.CopyOf, and a
//     borrowed message once Recv has called Hold on it (Hold returns its
//     argument, so the result is owned too). May be retained freely;
//     flagged only when used again after a transfer took it away
//     (including double frees and send-after-free, which panic at
//     runtime). Hold itself is flagged outside Recv and
//     on anything but the borrowed delivery, since it panics at runtime
//     for any other message.
//   - unknown: any other *network.Message value (helper parameters,
//     fields, type assertions, the parameter of a Handle method). Only
//     the use-after-transfer check applies; in particular HandleAt of
//     an unknown-origin message is accepted, because a Handle method
//     legitimately re-defers the message it is handling.
//
// Branches merge conservatively: a message transferred on any path
// that falls through is treated as transferred afterwards, while
// branches ending in return or panic do not leak state past the join,
// so the `if done { Free(m) }` and `Schedule(m); return` idioms stay
// clean. The analyzer skips the network package itself — the pool
// implementation is the one place allowed to break its own rules.
package msgown

import (
	"go/ast"
	"go/token"
	"go/types"

	"tokencmp/internal/lint/analysis"
	"tokencmp/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "msgown",
	Doc:  "enforce the network.Message pool-ownership contract (no retention past Recv, no use after Send/Free)",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Path() == lintutil.NetworkPath {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				a := &funcAnalysis{pass: pass}
				a.analyze(fd)
			}
		}
	}
	return nil, nil
}

// origin classifies how a tracked message pointer was obtained.
type origin int

const (
	originUnknown  origin = iota // helper params, asserts, field loads
	originBorrowed               // delivered to Recv; network-owned
	originOwned                  // NewMessage/CopyOf/Hold result; caller-owned
)

// varState is the per-variable ownership state at one program point.
type varState struct {
	origin   origin
	dead     bool   // ownership transferred to the network
	deadBy   string // the transferring Network method
	deadLine int
}

// state maps tracked message variables to their current ownership.
// Branching copies it; joins merge copies.
type state map[*types.Var]varState

func (st state) clone() state {
	c := make(state, len(st))
	for k, v := range st {
		c[k] = v
	}
	return c
}

// merge folds a branch exit state into st: a variable transferred on
// any falling-through path counts as transferred at the join.
func (st state) merge(branch state) {
	for v, bs := range branch {
		s, ok := st[v]
		if !ok {
			continue // branch-local variable
		}
		if bs.dead && !s.dead {
			st[v] = bs
		}
	}
}

type funcAnalysis struct {
	pass   *analysis.Pass
	inRecv bool // the function is a Recv method, where Hold is legal
}

func (a *funcAnalysis) analyze(fd *ast.FuncDecl) {
	st := make(state)
	borrowed := fd.Name.Name == "Recv" && fd.Recv != nil
	a.inRecv = borrowed
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				v, ok := a.pass.TypesInfo.Defs[name].(*types.Var)
				if !ok || !lintutil.IsMessagePtr(v.Type()) {
					continue
				}
				if borrowed {
					st[v] = varState{origin: originBorrowed}
				} else {
					st[v] = varState{origin: originUnknown}
				}
			}
		}
	}
	a.walkBlock(fd.Body, st)
}

// walkBlock processes stmts in order; it reports whether control falls
// off the end (false when a return/panic/branch terminated it).
func (a *funcAnalysis) walkBlock(b *ast.BlockStmt, st state) bool {
	for _, s := range b.List {
		if terminated := a.walkStmt(s, st); terminated {
			return false
		}
	}
	return true
}

// walkStmt processes one statement and reports whether it terminates
// the enclosing control flow.
func (a *funcAnalysis) walkStmt(s ast.Stmt, st state) (terminated bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return !a.walkBlock(s, st)

	case *ast.ExprStmt:
		a.checkExpr(s.X, st)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := a.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					return true
				}
			}
		}
		return false

	case *ast.AssignStmt:
		a.walkAssign(s, st)
		return false

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, val := range vs.Values {
					a.checkExpr(val, st)
				}
				for i, name := range vs.Names {
					v, ok := a.pass.TypesInfo.Defs[name].(*types.Var)
					if !ok || !lintutil.IsMessagePtr(v.Type()) {
						continue
					}
					var init ast.Expr
					if i < len(vs.Values) {
						init = vs.Values[i]
					}
					st[v] = a.originOf(init, st)
				}
			}
		}
		return false

	case *ast.IfStmt:
		if s.Init != nil {
			a.walkStmt(s.Init, st)
		}
		a.checkExpr(s.Cond, st)
		thenSt := st.clone()
		thenFalls := !a.walkStmt(s.Body, thenSt)
		elseSt := st.clone()
		elseFalls := true
		if s.Else != nil {
			elseFalls = !a.walkStmt(s.Else, elseSt)
		}
		switch {
		case thenFalls && elseFalls:
			st.merge(thenSt)
			st.merge(elseSt)
		case thenFalls:
			a.overwrite(st, thenSt)
		case elseFalls:
			a.overwrite(st, elseSt)
		default:
			return true
		}
		return false

	case *ast.ForStmt:
		if s.Init != nil {
			a.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			a.checkExpr(s.Cond, st)
		}
		bodySt := st.clone()
		if !a.walkStmt(s.Body, bodySt) && s.Post != nil {
			a.walkStmt(s.Post, bodySt)
		}
		st.merge(bodySt)
		return false

	case *ast.RangeStmt:
		a.checkExpr(s.X, st)
		bodySt := st.clone()
		a.defineRangeVar(s.Key, bodySt)
		a.defineRangeVar(s.Value, bodySt)
		a.walkStmt(s.Body, bodySt)
		st.merge(bodySt)
		return false

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return a.walkSwitch(s, st)

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			a.checkExpr(r, st)
		}
		return true

	case *ast.BranchStmt:
		// break/continue/goto: state does not flow to the next
		// statement of this block.
		return true

	case *ast.DeferStmt:
		// Deferred calls run at function exit: check for dead uses but
		// apply no transfers (a deferred Free is the last touch).
		a.checkCallArgs(s.Call, st)
		return false

	case *ast.GoStmt:
		a.walkGoCall(s.Call, st)
		return false

	case *ast.IncDecStmt:
		a.checkExpr(s.X, st)
		return false

	case *ast.SendStmt:
		a.checkExpr(s.Chan, st)
		a.checkExpr(s.Value, st)
		if v := a.trackedBorrowed(s.Value, st); v != nil {
			a.pass.Reportf(s.Value.Pos(), "network-owned message %s sent on a channel; it is reclaimed when Recv returns — Hold it or keep a CopyOf", v.Name())
		}
		return false

	case *ast.LabeledStmt:
		return a.walkStmt(s.Stmt, st)
	}
	return false
}

// overwrite replaces the tracked entries of st with those from the only
// falling-through branch.
func (a *funcAnalysis) overwrite(st, branch state) {
	for v := range st {
		if bs, ok := branch[v]; ok {
			st[v] = bs
		}
	}
}

// walkSwitch handles switch, type-switch and select uniformly: each
// clause is a branch; falling-through clauses merge. A missing default
// means the zero-clause path also reaches the join.
func (a *funcAnalysis) walkSwitch(s ast.Stmt, st state) (terminated bool) {
	var clauses []ast.Stmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			a.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			a.checkExpr(s.Tag, st)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			a.walkStmt(s.Init, st)
		}
		a.walkStmt(s.Assign, st)
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	anyFalls := false
	exits := make([]state, 0, len(clauses))
	for _, c := range clauses {
		clSt := st.clone()
		falls := true
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				a.checkExpr(e, clSt)
			}
			falls = a.walkStmtList(c.Body, clSt)
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				a.walkStmt(c.Comm, clSt)
			}
			falls = a.walkStmtList(c.Body, clSt)
		}
		if falls {
			anyFalls = true
			exits = append(exits, clSt)
		}
	}
	if !hasDefault {
		anyFalls = true // the no-match path
	}
	for _, e := range exits {
		st.merge(e)
	}
	return !anyFalls
}

func (a *funcAnalysis) walkStmtList(list []ast.Stmt, st state) (falls bool) {
	for _, s := range list {
		if a.walkStmt(s, st) {
			return false
		}
	}
	return true
}

func (a *funcAnalysis) defineRangeVar(e ast.Expr, st state) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return
	}
	if v, ok := a.pass.TypesInfo.Defs[id].(*types.Var); ok && lintutil.IsMessagePtr(v.Type()) {
		st[v] = varState{origin: originUnknown}
	}
}

// walkAssign handles definitions, reassignments, aliasing and the
// retention-by-store checks.
func (a *funcAnalysis) walkAssign(s *ast.AssignStmt, st state) {
	for _, r := range s.Rhs {
		a.checkExpr(r, st)
	}
	paired := len(s.Lhs) == len(s.Rhs)
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if paired {
			rhs = s.Rhs[i]
		}
		// Storing a borrowed message into anything but a fresh local
		// retains it past Recv.
		if rhs != nil {
			if v := a.trackedBorrowed(rhs, st); v != nil {
				switch ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr:
					a.pass.Reportf(rhs.Pos(), "network-owned message %s stored in a field; it is reclaimed when Recv returns — Hold it or keep a CopyOf", v.Name())
				case *ast.IndexExpr:
					a.pass.Reportf(rhs.Pos(), "network-owned message %s stored in a slice or map; it is reclaimed when Recv returns — Hold it or keep a CopyOf", v.Name())
				case *ast.StarExpr:
					a.pass.Reportf(rhs.Pos(), "network-owned message %s stored through a pointer; it is reclaimed when Recv returns — Hold it or keep a CopyOf", v.Name())
				}
			}
			if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok {
				a.checkClosureCapture(lit, st, "stored in a variable")
			}
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			a.checkExpr(lhs, st)
			continue
		}
		var v *types.Var
		if s.Tok == token.DEFINE {
			v, _ = a.pass.TypesInfo.Defs[id].(*types.Var)
		} else {
			v, _ = a.pass.TypesInfo.Uses[id].(*types.Var)
		}
		if v == nil || !lintutil.IsMessagePtr(v.Type()) {
			continue
		}
		// Reassignment revives (or re-classifies) the variable.
		st[v] = a.originOf(rhs, st)
	}
}

// originOf classifies the ownership a message variable acquires from
// its initializer.
func (a *funcAnalysis) originOf(rhs ast.Expr, st state) varState {
	if rhs == nil {
		return varState{origin: originUnknown}
	}
	switch rhs := ast.Unparen(rhs).(type) {
	case *ast.CallExpr:
		fn := lintutil.Callee(a.pass.TypesInfo, rhs)
		if lintutil.IsMethod(fn, lintutil.NetworkPath, "Network", "NewMessage") ||
			lintutil.IsMethod(fn, lintutil.NetworkPath, "Network", "CopyOf") ||
			lintutil.IsMethod(fn, lintutil.NetworkPath, "Network", "Hold") {
			return varState{origin: originOwned}
		}
	case *ast.Ident:
		if v, ok := a.pass.TypesInfo.Uses[rhs].(*types.Var); ok {
			if s, ok := st[v]; ok {
				return s // alias inherits the source's state
			}
		}
	}
	return varState{origin: originUnknown}
}

// checkExpr walks an expression in evaluation context: transfer calls
// update st, dead uses and borrowed retentions are reported. Function
// literal bodies are not entered — they execute later; their captures
// are checked at the capture sites that matter.
func (a *funcAnalysis) checkExpr(e ast.Expr, st state) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			a.checkCall(n, st)
			return false
		case *ast.FuncLit:
			return false
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				val := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if v := a.trackedBorrowed(val, st); v != nil {
					a.pass.Reportf(val.Pos(), "network-owned message %s stored in a composite literal; it is reclaimed when Recv returns — Hold it or keep a CopyOf", v.Name())
				}
				if lit, ok := ast.Unparen(val).(*ast.FuncLit); ok {
					a.checkClosureCapture(lit, st, "stored in a composite literal")
				}
			}
			return true
		case *ast.Ident:
			a.checkUse(n, st)
		}
		return true
	})
}

// checkUse reports a read of a variable whose ownership was already
// transferred to the network.
func (a *funcAnalysis) checkUse(id *ast.Ident, st state) {
	v, ok := a.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return
	}
	if s, ok := st[v]; ok && s.dead {
		a.pass.Reportf(id.Pos(), "use of message %s after %s on line %d transferred it to the network", v.Name(), s.deadBy, s.deadLine)
	}
}

// trackedBorrowed returns the borrowed variable behind e, if any.
func (a *funcAnalysis) trackedBorrowed(e ast.Expr, st state) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := a.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	if s, ok := st[v]; ok && s.origin == originBorrowed && !s.dead {
		return v
	}
	return nil
}

// tracked returns the tracked variable behind e, if any.
func (a *funcAnalysis) tracked(e ast.Expr, st state) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := a.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	if _, ok := st[v]; ok {
		return v
	}
	return nil
}

// checkCall classifies one call and applies its ownership effects.
func (a *funcAnalysis) checkCall(call *ast.CallExpr, st state) {
	info := a.pass.TypesInfo
	fn := lintutil.Callee(info, call)

	// append(s, m...) retains borrowed messages in a slice.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			for _, arg := range call.Args {
				a.checkExpr(arg, st)
			}
			for _, arg := range call.Args[1:] {
				if v := a.trackedBorrowed(arg, st); v != nil {
					a.pass.Reportf(arg.Pos(), "network-owned message %s appended to a slice; it is reclaimed when Recv returns — Hold it or keep a CopyOf", v.Name())
				}
			}
			return
		}
	}

	transfer := func(arg ast.Expr, by string) {
		a.checkExpr(arg, st) // nested calls, dead uses
		v := a.tracked(a.unhold(arg), st)
		if v == nil {
			return
		}
		s := st[v]
		if s.dead {
			return // checkExpr already reported the dead use
		}
		if s.origin == originBorrowed {
			verb := "sends"
			hint := "Hold it, copy it with CopyOf, or build a fresh message and SendNew"
			switch by {
			case "Free":
				verb = "frees"
				hint = "only messages from NewMessage, CopyOf or Hold may be freed"
			case "HandleAfter", "HandleAt":
				verb = "defers"
				hint = "pass Hold(m) or a CopyOf"
			}
			a.pass.Reportf(arg.Pos(), "%s %s a network-owned message delivered to Recv; the network reclaims it after Recv returns — %s", by, verb, hint)
		}
		s.dead = true
		s.deadBy = by
		s.deadLine = a.pass.Fset.Position(call.Pos()).Line
		st[v] = s
	}

	switch {
	case lintutil.IsMethod(fn, lintutil.NetworkPath, "Network", "Send") && len(call.Args) == 1:
		transfer(call.Args[0], "Send")
		return
	case lintutil.IsMethod(fn, lintutil.NetworkPath, "Network", "SendAfter") && len(call.Args) == 2,
		lintutil.IsMethod(fn, lintutil.NetworkPath, "Network", "HandleAfter") && len(call.Args) == 2,
		lintutil.IsMethod(fn, lintutil.NetworkPath, "Network", "HandleAt") && len(call.Args) == 2:
		a.checkExpr(call.Args[0], st)
		transfer(call.Args[1], fn.Name())
		return
	case lintutil.IsMethod(fn, lintutil.NetworkPath, "Network", "Free") && len(call.Args) == 1:
		transfer(call.Args[0], "Free")
		return
	case lintutil.IsMethod(fn, lintutil.NetworkPath, "Network", "Hold") && len(call.Args) == 1:
		a.hold(call, st)
		return

	case lintutil.IsMethod(fn, lintutil.SimPath, "Engine", "ScheduleCall") && len(call.Args) == 4,
		lintutil.IsMethod(fn, lintutil.SimPath, "Engine", "ScheduleCallAt") && len(call.Args) == 4:
		// ScheduleCall(d, call, ctx, arg): a borrowed message as ctx or
		// arg reaches the thunk only after Recv returned and the pool
		// reclaimed it.
		for _, arg := range call.Args {
			a.checkExpr(arg, st)
		}
		for _, arg := range call.Args[2:] {
			if v := a.trackedBorrowed(arg, st); v != nil {
				a.pass.Reportf(arg.Pos(), "network-owned message %s passed to %s; the thunk runs after Recv returns and the pool reclaims it — pass Hold(m) or a CopyOf", v.Name(), fn.Name())
			}
		}
		if len(call.Args) >= 2 {
			if lit, ok := ast.Unparen(call.Args[1]).(*ast.FuncLit); ok {
				a.checkClosureCapture(lit, st, "scheduled with "+fn.Name())
			}
		}
		return

	case lintutil.IsMethod(fn, lintutil.SimPath, "Engine", "Schedule"),
		lintutil.IsMethod(fn, lintutil.SimPath, "Engine", "ScheduleAt"):
		for _, arg := range call.Args {
			a.checkExpr(arg, st)
		}
		if len(call.Args) >= 2 {
			if lit, ok := ast.Unparen(call.Args[1]).(*ast.FuncLit); ok {
				a.checkClosureCapture(lit, st, "scheduled with "+fn.Name())
			}
		}
		return
	}

	// Ordinary call: synchronous use of any argument is fine; still
	// check for dead uses and nested effects.
	a.checkCallArgs(call, st)
}

// hold applies Network.Hold: only Recv may call it, and only on the
// borrowed delivery, which the caller then owns.
func (a *funcAnalysis) hold(call *ast.CallExpr, st state) {
	arg := call.Args[0]
	a.checkExpr(arg, st)
	if !a.inRecv {
		a.pass.Reportf(call.Pos(), "Hold outside Recv; Hold panics unless its argument is the message being delivered — hold it in Recv and pass the result on")
		return
	}
	v := a.tracked(a.unhold(arg), st)
	if v != nil && st[v].dead {
		return // checkExpr already reported the dead use
	}
	if v == nil || st[v].origin != originBorrowed {
		a.pass.Reportf(arg.Pos(), "Hold of a message other than the borrowed delivery; Hold panics unless its argument is the message being delivered and not yet held")
		return
	}
	st[v] = varState{origin: originOwned}
}

// unhold strips Network.Hold calls from e: Hold returns its argument.
func (a *funcAnalysis) unhold(e ast.Expr) ast.Expr {
	for {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok || len(call.Args) != 1 ||
			!lintutil.IsMethod(lintutil.Callee(a.pass.TypesInfo, call), lintutil.NetworkPath, "Network", "Hold") {
			return e
		}
		e = call.Args[0]
	}
}

// checkCallArgs checks a call's function expression and arguments
// without applying ownership transfers.
func (a *funcAnalysis) checkCallArgs(call *ast.CallExpr, st state) {
	a.checkExpr(call.Fun, st)
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			// Synchronous callee (sort.Slice and friends): borrowed
			// captures are fine; only dead uses inside are not.
			a.checkDeadUsesIn(lit, st)
			continue
		}
		a.checkExpr(arg, st)
	}
}

// walkGoCall handles `go f(...)`: the goroutine outlives Recv, so both
// borrowed arguments and borrowed captures are retentions.
func (a *funcAnalysis) walkGoCall(call *ast.CallExpr, st state) {
	for _, arg := range call.Args {
		a.checkExpr(arg, st)
		if v := a.trackedBorrowed(arg, st); v != nil {
			a.pass.Reportf(arg.Pos(), "network-owned message %s passed to a goroutine; it is reclaimed when Recv returns — pass Hold(m) or a CopyOf", v.Name())
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		a.checkClosureCapture(lit, st, "started as a goroutine")
	}
}

// checkClosureCapture reports borrowed messages captured by a closure
// that escapes the Recv window (scheduled, stored, or go'd).
func (a *funcAnalysis) checkClosureCapture(lit *ast.FuncLit, st state, how string) {
	for _, v := range lintutil.FreeVars(a.pass.TypesInfo, lit) {
		if s, ok := st[v]; ok && s.origin == originBorrowed && !s.dead {
			a.pass.Reportf(lit.Pos(), "closure %s captures network-owned message %s; it runs after Recv returns and the pool reclaims the message — capture Hold(m) or a CopyOf", how, v.Name())
		}
	}
	a.checkDeadUsesIn(lit, st)
}

// checkDeadUsesIn flags uses, inside a closure body, of messages whose
// ownership was already transferred when the closure was created.
func (a *funcAnalysis) checkDeadUsesIn(lit *ast.FuncLit, st state) {
	for _, v := range lintutil.FreeVars(a.pass.TypesInfo, lit) {
		if s, ok := st[v]; ok && s.dead {
			a.pass.Reportf(lit.Pos(), "closure captures message %s after %s on line %d transferred it to the network", v.Name(), s.deadBy, s.deadLine)
		}
	}
}
