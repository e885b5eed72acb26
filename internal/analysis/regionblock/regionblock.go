// Package regionblock flags blocking operations inside a parallel region
// body. A region dispatch holds the executor's region mutex for the whole
// region and completes through a barrier, so a body that blocks —
// channel send/receive, select without default, sync waits, lease
// acquisition, a nested dispatch, or a Reconcile — can deadlock the whole
// team: the barrier never completes, the region mutex is never released,
// and every later dispatch (including the lease Close/Reconcile path that
// would have freed the blocker) queues behind it forever. This is the
// deadlock shape PR 2's panic-safety work danced around;
// parallel.TestRegionBodyBlockingSendDeadlocksLease documents it by
// construction.
//
// The analysis is lexical: it inspects function literals passed directly
// as the body argument of Run/For on the parallel runtime
// (package-level or executor methods). Bodies passed as bound methods
// (the kernels' pre-bound frame workers) are out of lexical reach and are
// covered by the runtime's race tests instead. Goroutines launched from
// inside a body escape the region and are exempt.
package regionblock

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer flags blocking operations inside region bodies.
var Analyzer = &analysis.Analyzer{
	Name: "regionblock",
	Doc:  "flag blocking operations (channel ops, sync waits, lease calls, nested dispatch) inside parallel region bodies",
	Run:  run,
}

// bodyArgIndex maps dispatch functions to the position of their body
// argument.
var bodyArgIndex = map[string]int{"Run": 1, "For": 2}

func run(pass *analysis.Pass) error {
	if analysis.PkgPathHasSuffix(pass.Pkg.Path(), "internal/parallel") {
		// The runtime implements the primitive: its dispatch loop hands
		// jobs to workers over channels by design.
		return nil
	}
	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := analysis.CalleeFunc(info, call)
			if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != analysis.ParallelPkg {
				return true
			}
			idx, ok := bodyArgIndex[callee.Name()]
			if !ok || idx >= len(call.Args) {
				return true
			}
			if lit, ok := ast.Unparen(call.Args[idx]).(*ast.FuncLit); ok {
				checkBody(pass, lit.Body)
			}
			return true
		})
	}
	return nil
}

// checkBody walks one region body, skipping goroutine subtrees.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	// Channel ops that are the comm clause of a select are judged through
	// the select itself (flagged only when it has no default case), not as
	// standalone blocking ops.
	comm := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			comm[cc.Comm] = true
			switch s := cc.Comm.(type) {
			case *ast.ExprStmt:
				comm[ast.Unparen(s.X)] = true
			case *ast.AssignStmt:
				for _, r := range s.Rhs {
					comm[ast.Unparen(r)] = true
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.GoStmt:
			return false // a spawned goroutine escapes the region
		case *ast.SendStmt:
			if !comm[st] {
				pass.Reportf(st.Arrow, "channel send inside a parallel region body can deadlock the region barrier")
			}
		case *ast.UnaryExpr:
			if st.Op == token.ARROW && !comm[st] {
				pass.Reportf(st.OpPos, "channel receive inside a parallel region body can deadlock the region barrier")
			}
		case *ast.SelectStmt:
			if !hasDefault(st) {
				pass.Reportf(st.Select, "blocking select inside a parallel region body can deadlock the region barrier (add a default case or move it out of the region)")
			}
		case *ast.RangeStmt:
			if _, ok := info.TypeOf(st.X).Underlying().(*types.Chan); ok {
				pass.Reportf(st.For, "ranging over a channel inside a parallel region body can deadlock the region barrier")
			}
		case *ast.CallExpr:
			checkCall(pass, st)
		}
		return true
	})
}

func hasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// checkCall flags blocking calls inside a region body.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	if analysis.MethodOn(info, call, "sync", "Wait") {
		pass.Reportf(call.Pos(), "sync wait inside a parallel region body can deadlock the region barrier")
		return
	}
	callee := analysis.CalleeFunc(info, call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != analysis.ParallelPkg {
		return
	}
	switch callee.Name() {
	case "Run", "For", "ReduceSum":
		pass.Reportf(call.Pos(), "nested dispatch inside a region body deadlocks the executing pool; use the sequential arena helpers instead")
	case "Reconcile":
		pass.Reportf(call.Pos(), "Reconcile blocks for the region barrier; call it at phase boundaries, never inside a region body")
	case "Lease", "Close":
		pass.Reportf(call.Pos(), "%s inside a region body blocks on the region mutex and deadlocks the team", callee.Name())
	}
}
