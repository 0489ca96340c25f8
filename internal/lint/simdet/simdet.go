// Package simdet implements the simlint determinism analyzer for the
// simulator packages.
//
// The repo's results are pinned byte-for-byte (golden figure files,
// exact model-checker state counts), so simulation code must not let
// any nondeterministic order or source reach them. simdet flags the
// three ways that happens in Go:
//
//   - Ranging over a map when the body's effects can reach results:
//     scheduling or sending (event order becomes map order), float
//     accumulation such as stats.Sample.Add (rounding becomes
//     order-dependent), writes to ordered output (fmt.Fprint* and
//     Buffer/Builder writes), appends to a slice declared outside the
//     loop, and calls to dynamic function values (completion callbacks
//     schedule events). Calls are resolved transitively within the
//     package, so a map-range that calls a local helper which Sends is
//     still caught. Two idioms stay clean by design: deleting from the
//     ranged map, and the collect-then-sort pattern (an append whose
//     slice is passed to sort/slices later in the same function).
//     Integer counter updates (Traffic.Add and friends) are commutative
//     and therefore allowed.
//
//   - time.Now, called or referenced: wall-clock time in simulation
//     code makes runs irreproducible, and storing time.Now behind a
//     function value smuggles it in just as effectively as calling it.
//     (The mc checker's states/sec throughput report is the sanctioned
//     per-line exception, suppressed with a simlint:ignore directive —
//     it measures the checker, not the model. The serving layer in
//     internal/simd is the sanctioned per-package exception, listed in
//     wallClockSanctioned — deadlines and TTLs are wall-clock policy
//     there by design, and no simulation result depends on them.)
//
//   - Global math/rand (and math/rand/v2) functions: the global source
//     is process-seeded. Components draw from their own seeded
//     *rand.Rand (rand.New(rand.NewSource(seed...)) is fine, and is the
//     idiom everywhere in internal/workload).
//
// The analyzer applies to tokencmp/internal/... packages only (the
// analyzers' own testdata excepted); command wrappers and examples may
// use wall-clock time freely.
package simdet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tokencmp/internal/lint/analysis"
	"tokencmp/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "simdet",
	Doc:  "flag nondeterminism sources in simulator packages: effectful map iteration, time.Now, global math/rand",
	Run:  run,
}

// wallClockSanctioned lists the packages allowed to read the wall
// clock, each with the justification that makes the exception sound.
// The bar for an entry: the package must sit outside the deterministic
// core, and no simulation result may depend on what the clock says —
// only serving policy (deadlines, TTLs, backoff hints). The map-range
// and math/rand checks still apply to sanctioned packages in full.
var wallClockSanctioned = map[string]string{
	"tokencmp/internal/simd": "serving layer: deadlines, cache TTLs, Retry-After hints, breaker cooldowns, and the durable store's persisted absolute expiries are wall-clock policy by design; response bodies are a pure function of the request's cache key, and the on-disk entry frame carries its own expiry timestamp so recovery never consults file mtimes",
}

func run(pass *analysis.Pass) (any, error) {
	path := pass.Pkg.Path()
	if !strings.HasPrefix(path, "tokencmp/internal/") {
		return nil, nil
	}
	if strings.HasPrefix(path, "tokencmp/internal/lint") && !strings.Contains(path, "/testdata/") {
		return nil, nil
	}

	a := &pkgAnalysis{pass: pass, clockExempt: wallClockSanctioned[path] != ""}
	a.buildEffectSummary()
	for _, f := range pass.Files {
		// callFuns records expressions serving as the function operand
		// of a call, so a bare time.Now reference can be told apart
		// from a time.Now() call (Inspect visits the call first).
		callFuns := make(map[ast.Expr]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				callFuns[ast.Unparen(n.Fun)] = true
				a.checkClockAndRand(n)
			case *ast.SelectorExpr:
				a.checkClockRef(n, callFuns)
			case *ast.FuncDecl:
				if n.Body != nil {
					a.checkMapRanges(n)
				}
				return true
			}
			return true
		})
	}
	return nil, nil
}

type pkgAnalysis struct {
	pass *analysis.Pass
	// clockExempt is set for wallClockSanctioned packages: the
	// time.Now checks are skipped, everything else still runs.
	clockExempt bool
	// effectful holds the package's own functions that (transitively)
	// schedule, send, or update order-sensitive statistics.
	effectful map[*types.Func]bool
}

// checkClockAndRand flags time.Now and global math/rand calls anywhere
// in the package.
func (a *pkgAnalysis) checkClockAndRand(call *ast.CallExpr) {
	fn := lintutil.Callee(a.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	if lintutil.IsFunc(fn, "time", "Now") {
		if !a.clockExempt {
			a.pass.Reportf(call.Pos(), "time.Now in simulation code: wall-clock time makes runs irreproducible — derive times from sim.Engine.Now")
		}
		return
	}
	if pkg := fn.Pkg(); pkg != nil && (pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2") {
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() != nil {
			return // methods on *rand.Rand are seeded by construction
		}
		if strings.HasPrefix(fn.Name(), "New") {
			return // rand.New(rand.NewSource(seed)) is the sanctioned idiom
		}
		a.pass.Reportf(call.Pos(), "global %s.%s is process-seeded and nondeterministic across runs — draw from a component-owned rand.New(rand.NewSource(seed))", pkg.Path(), fn.Name())
	}
}

// checkClockRef flags time.Now referenced as a function value rather
// than called — assigning it to a field or variable smuggles the wall
// clock into simulation code just as effectively as calling it.
func (a *pkgAnalysis) checkClockRef(sel *ast.SelectorExpr, callFuns map[ast.Expr]bool) {
	if a.clockExempt || callFuns[sel] {
		return
	}
	fn, ok := a.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || !lintutil.IsFunc(fn, "time", "Now") {
		return
	}
	a.pass.Reportf(sel.Pos(), "reference to time.Now in simulation code: storing the wall clock behind a function value makes runs irreproducible — derive times from sim.Engine.Now")
}

// seedEffect classifies calls that directly make map-iteration order
// observable in results. The returned reason is empty for harmless
// calls.
func (a *pkgAnalysis) seedEffect(call *ast.CallExpr) string {
	info := a.pass.TypesInfo
	fn := lintutil.Callee(info, call)
	if fn == nil {
		// Conversion or builtin?
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if _, ok := info.Uses[fun].(*types.Builtin); ok {
				return "" // append handled separately; delete/len/cap are fine
			}
			if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
				return ""
			}
		default:
			if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
				return ""
			}
		}
		if _, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			return "" // immediately-invoked literal: body is inspected anyway
		}
		return "calls a dynamic function value (completion callbacks schedule events)"
	}
	switch {
	case lintutil.MethodOn(fn, lintutil.SimPath, "Engine"):
		switch fn.Name() {
		case "ScheduleCall", "ScheduleCallAt", "Stop":
			return "schedules events via Engine." + fn.Name()
		}
	case lintutil.MethodOn(fn, lintutil.NetworkPath, "Network"):
		switch fn.Name() {
		case "SendNew", "SendAfter", "Broadcast":
			return "sends messages via Network." + fn.Name()
		case "HandleAfter", "HandleAt":
			return "schedules events via Network." + fn.Name()
		}
	case lintutil.IsMethod(fn, lintutil.StatsPath, "Sample", "Add"):
		return "accumulates into stats.Sample (float rounding is order-dependent)"
	case fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && (strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")):
		return "writes ordered output via fmt." + fn.Name()
	case lintutil.MethodOn(fn, "bytes", "Buffer") && strings.HasPrefix(fn.Name(), "Write"),
		lintutil.MethodOn(fn, "strings", "Builder") && strings.HasPrefix(fn.Name(), "Write"):
		return "writes ordered output"
	}
	return ""
}

// buildEffectSummary computes, by fixpoint over the package's static
// call graph, which package functions transitively reach a seed effect.
func (a *pkgAnalysis) buildEffectSummary() {
	info := a.pass.TypesInfo
	bodies := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range a.pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				bodies[fn] = fd
			}
		}
	}
	a.effectful = make(map[*types.Func]bool)
	// Direct effects.
	for fn, fd := range bodies {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if a.effectful[fn] {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				callee := lintutil.Callee(info, call)
				// Dynamic calls are only treated as effects at range
				// sites; for the summary, require a concrete seed so a
				// String() method calling an interface does not taint
				// its callers.
				if callee != nil && a.seedEffect(call) != "" {
					a.effectful[fn] = true
					return false
				}
			}
			return true
		})
	}
	// Propagate through same-package calls until stable.
	for changed := true; changed; {
		changed = false
		for fn, fd := range bodies {
			if a.effectful[fn] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if a.effectful[fn] {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok {
					if callee := lintutil.Callee(info, call); callee != nil && a.effectful[callee] {
						a.effectful[fn] = true
						changed = true
						return false
					}
				}
				return true
			})
		}
	}
}

// checkMapRanges inspects every map-range in fd for effects that make
// iteration order observable.
func (a *pkgAnalysis) checkMapRanges(fd *ast.FuncDecl) {
	info := a.pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		a.checkMapRangeBody(fd, rng)
		return true
	})
}

func (a *pkgAnalysis) checkMapRangeBody(fd *ast.FuncDecl, rng *ast.RangeStmt) {
	info := a.pass.TypesInfo
	rangedObj := exprObj(info, rng.X)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isDelete(info, n, rangedObj) {
				return true // draining the ranged map is order-independent
			}
			if reason := a.seedEffect(n); reason != "" {
				a.pass.Reportf(n.Pos(), "map iteration order reaches results: %s inside range over map — iterate a sorted key slice instead", reason)
				return true
			}
			if callee := lintutil.Callee(info, n); callee != nil && a.effectful[callee] {
				a.pass.Reportf(n.Pos(), "map iteration order reaches results: %s (transitively) schedules, sends, or updates order-sensitive statistics inside range over map — iterate a sorted key slice instead", callee.Name())
			}
		case *ast.AssignStmt:
			a.checkRangeAssign(fd, rng, n)
		}
		return true
	})
}

// checkRangeAssign flags appends to outer slices (unless sorted later)
// and float accumulation into outer variables.
func (a *pkgAnalysis) checkRangeAssign(fd *ast.FuncDecl, rng *ast.RangeStmt, as *ast.AssignStmt) {
	info := a.pass.TypesInfo
	for i, lhs := range as.Lhs {
		base := baseObj(info, lhs)
		if base == nil || declaredWithin(base, rng) {
			continue
		}
		// append to an outer slice?
		if i < len(as.Rhs) {
			if call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok && isBuiltinNamed(info, call, "append") {
				if sortedAfter(info, fd, rng, base) {
					continue // collect-then-sort idiom
				}
				a.pass.Reportf(as.Pos(), "map iteration order reaches results: append to %s inside range over map without sorting it afterwards — sort the keys (or the result) for a deterministic order", base.Name())
				continue
			}
		}
		// Float accumulation in map order is rounding-order-dependent.
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			if basic, ok := base.Type().Underlying().(*types.Basic); ok && basic.Info()&types.IsFloat != 0 {
				a.pass.Reportf(as.Pos(), "map iteration order reaches results: float accumulation into %s inside range over map — iterate a sorted key slice instead", base.Name())
			}
		}
	}
}

// exprObj resolves e to a variable object if e is a plain (possibly
// selected) identifier.
func exprObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			return sel.Obj()
		}
		return info.Uses[e.Sel]
	}
	return nil
}

// baseObj resolves the root variable written by an assignment target.
func baseObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.Uses[x]
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok {
				return sel.Obj()
			}
			return info.Uses[x.Sel]
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether obj's declaration lies inside n.
func declaredWithin(obj types.Object, n ast.Node) bool {
	return n.Pos() <= obj.Pos() && obj.Pos() < n.End()
}

func isBuiltinNamed(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// isDelete reports whether call is delete(rangedMap, ...).
func isDelete(info *types.Info, call *ast.CallExpr, ranged types.Object) bool {
	if !isBuiltinNamed(info, call, "delete") || len(call.Args) == 0 || ranged == nil {
		return false
	}
	return exprObj(info, call.Args[0]) == ranged
}

// sortedAfter reports whether obj is passed to a sort or slices
// function after the range statement within fd — the canonical
// collect-then-sort fix.
func sortedAfter(info *types.Info, fd *ast.FuncDecl, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := lintutil.Callee(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if exprObj(info, arg) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
