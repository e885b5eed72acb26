// Package effectiveresolve enforces the t = 0 resolution contract of the
// worker runtime (DESIGN.md; PR 2): a requested worker count is resolved
// to a dispatch width only by parallel.Effective / EffectiveOn / Clamp.
// In kernel packages it flags
//
//   - calls to Workers() on a parallel executor (Pool/Lease/Executor):
//     Workers reports the current team width, which is neither a cap nor
//     the width a t = 0 dispatch resolves to;
//   - a raw Threads configuration field used directly to size a parallel
//     region (the t argument of For/Run/ReduceSum/Split/BlockRange) or
//     a make() — an unresolved t <= 0 silently yields a zero-width
//     region or an empty buffer set.
//
// Everywhere outside the runtime itself it also flags direct
// runtime.GOMAXPROCS reads: parallel.DefaultThreads (or Effective) is the
// single blessed spelling, so the resolution rule has one definition.
package effectiveresolve

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer enforces width resolution through parallel.Effective.
var Analyzer = &analysis.Analyzer{
	Name: "effectiveresolve",
	Doc:  "flag Pool.Workers()/raw Threads/runtime.GOMAXPROCS used to size parallel work instead of parallel.Effective",
	Run:  run,
}

// kernelPkgs are the package-path suffixes treated as kernel code, where
// the Workers() and raw-Threads rules apply. The scheduler (serve), the
// transport and the daemons legitimately read team widths for admission
// budgets and stats reporting.
var kernelPkgs = []string{
	"internal/core", "internal/blas", "internal/krp", "internal/ttm",
	"internal/tucker", "internal/fmri", "internal/stream", "internal/tensor",
	"internal/cpd", "internal/la", "internal/mat", "internal/bench",
}

func isKernelPkg(path string) bool {
	for _, k := range kernelPkgs {
		if analysis.PkgPathHasSuffix(path, k) {
			return true
		}
	}
	return false
}

// tArgIndex maps region-sizing callables to the position of their t
// argument.
var tArgIndex = map[string]int{
	"For": 0, "Run": 0, "ReduceSum": 0,
	"Split": 1, "BlockRange": 1,
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	inParallel := analysis.PkgPathHasSuffix(path, "internal/parallel")
	kernel := isKernelPkg(path)
	info := pass.TypesInfo

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !inParallel && analysis.IsPkgFunc(info, call, "runtime", "GOMAXPROCS") {
				pass.Reportf(call.Pos(), "runtime.GOMAXPROCS read outside the parallel runtime; use parallel.DefaultThreads (or Effective) so the t=0 rule has one definition")
			}
			if !kernel {
				return true
			}
			if analysis.MethodOn(info, call, analysis.ParallelPkg, "Workers") {
				pass.Reportf(call.Pos(), "Workers() reports the current team width, not a dispatch width; size kernel work with parallel.Effective/EffectiveOn")
			}
			checkRawThreads(pass, call)
			return true
		})
	}
	return nil
}

// checkRawThreads flags a bare Threads field in a region-sizing position.
func checkRawThreads(pass *analysis.Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
			for _, arg := range call.Args[1:] {
				if threadsField(info, arg) {
					pass.Reportf(arg.Pos(), "raw Threads field sizes a buffer set; resolve it first with parallel.Effective/EffectiveOn (t<=0 selects the default width)")
				}
			}
			return
		}
	}
	f := analysis.CalleeFunc(info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != analysis.ParallelPkg {
		return
	}
	idx, ok := tArgIndex[f.Name()]
	if !ok || idx >= len(call.Args) {
		return
	}
	if threadsField(info, call.Args[idx]) {
		pass.Reportf(call.Args[idx].Pos(), "raw Threads field passed as a region width; resolve it first with parallel.Effective/EffectiveOn")
	}
}

// threadsField reports whether e is a selection of a struct field named
// Threads.
func threadsField(info *types.Info, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Threads" {
		return false
	}
	selection, ok := info.Selections[sel]
	return ok && selection.Kind() == types.FieldVal
}
