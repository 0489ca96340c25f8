// Package schedalloc implements the simlint analyzer guarding the
// allocation-free scheduling discipline of sim.Engine.
//
// Profiling showed per-event closure allocations dominating the
// simulator's hot paths (BenchmarkTable4Barrier went from 2.22M to 49k
// allocs/op by converting per-access closures to prebound callbacks and
// ScheduleCall thunks). Engine.ScheduleCall/ScheduleCallAt, the
// engine's only scheduling API, take a call function plus
// pointer-shaped ctx and arg so that scheduling allocates nothing. A
// capturing closure passed as the call argument defeats that: it
// allocates on every call. The analyzer reports each one, wherever it
// appears.
//
// The fix is the repo-wide thunk idiom: a package-level
// func(ctx, arg any) plus pointer-shaped state passed through ctx and
// arg (see network.sendCall or cpu.procStep). Like every simlint
// analyzer it reads non-test files only, so a test may pass a
// capturing thunk.
package schedalloc

import (
	"go/ast"

	"tokencmp/internal/lint/analysis"
	"tokencmp/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "schedalloc",
	Doc:  "flag capturing closures passed as the call argument of sim.Engine.ScheduleCall/ScheduleCallAt (one allocation per scheduled event)",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkCall(pass, call)
			}
			return true
		})
	}
	return nil, nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := lintutil.Callee(pass.TypesInfo, call)
	if fn == nil || len(call.Args) != 4 ||
		!lintutil.IsMethod(fn, lintutil.SimPath, "Engine", "ScheduleCall") &&
			!lintutil.IsMethod(fn, lintutil.SimPath, "Engine", "ScheduleCallAt") {
		return
	}
	lit, ok := ast.Unparen(call.Args[1]).(*ast.FuncLit)
	if !ok {
		return
	}
	if free := lintutil.FreeVars(pass.TypesInfo, lit); len(free) > 0 {
		pass.Reportf(lit.Pos(), "capturing closure passed to Engine.%s defeats the closure-free fast path — use a package-level func(ctx, arg any) and pass state through ctx/arg", fn.Name())
	}
}
