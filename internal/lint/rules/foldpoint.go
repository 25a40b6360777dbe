package rules

import (
	"go/ast"
	"go/types"

	"repro/internal/lint"
)

// Foldpoint enforces the sequential-fold contract around the pooled
// executor: evidence/Stats merges and breaker Plan/Record calls belong
// at fold sites — the sequential code before a wave is dispatched and
// after it is collected — never inside worker closures. Workers run
// concurrently on pool goroutines; a gate consulted or a Stats struct
// mutated from inside one races the fold and un-deterministically
// reorders evidence, which gospawn (no ad-hoc goroutines) and maporder
// (ordered evidence iteration) only partially fence. This generalizes
// the rule exec.EvalRowsGatedCtx follows: Plan before the wave, Record
// after it, workers only fill their own slots.
var Foldpoint = &lint.Analyzer{
	Name: "foldpoint",
	Doc: "breaker/gate Plan and Record calls and Stats merges may only happen at sequential fold " +
		"sites, never inside pool worker closures or spawned goroutines (PR 5/9 fold contract)",
	Run: runFoldpoint,
}

// poolMethods are the executor entry points whose function-literal
// arguments run on pool goroutines.
var poolMethods = map[string]bool{
	"ForEachCtx":       true,
	"EvalRowsCtx":      true,
	"EvalRowsGatedCtx": true,
}

func runFoldpoint(pass *lint.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if !isPoolDispatch(pass.Info, n) {
					return true
				}
				for _, arg := range n.Args {
					if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						checkWorker(pass, lit, "pool worker closure")
					}
				}
			case *ast.GoStmt:
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					checkWorker(pass, lit, "spawned goroutine")
				}
			}
			return true
		})
	}
	return nil
}

// isPoolDispatch matches a call to one of the executor entry points on
// a value whose named type is Pool (matching by shape keeps the
// analyzer exercisable from testdata, like batchalias/spanbalance).
func isPoolDispatch(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !poolMethods[sel.Sel.Name] {
		return false
	}
	return namedTypeIs(info.TypeOf(sel.X), "Pool")
}

// checkWorker flags fold operations inside a worker function literal,
// including literals nested within it.
func checkWorker(pass *lint.Pass, lit *ast.FuncLit, where string) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := isGateCall(pass.Info, n); ok {
				pass.Reportf(n.Pos(),
					"%s call inside a %s: gate/breaker interaction must happen at the sequential "+
						"fold site (Plan before the wave, Record after it), not on pool goroutines",
					name, where)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				reportStatsWrite(pass, lhs, where)
			}
		case *ast.IncDecStmt:
			reportStatsWrite(pass, n.X, where)
		}
		return true
	})
}

// isGateCall matches method calls named Plan or Record on a value whose
// type is (or implements) the gate shape: a named type called Gate or
// Breaker, or an interface declaring both Plan and Record.
func isGateCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if name != "Plan" && name != "Record" {
		return "", false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return "", false
	}
	if namedTypeIs(t, "Gate") || namedTypeIs(t, "Breaker") {
		return name, true
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		hasPlan, hasRecord := false, false
		for i := 0; i < iface.NumMethods(); i++ {
			switch iface.Method(i).Name() {
			case "Plan":
				hasPlan = true
			case "Record":
				hasRecord = true
			}
		}
		if hasPlan && hasRecord {
			return name, true
		}
	}
	return "", false
}

// reportStatsWrite flags a write to a field of a Stats-named struct.
func reportStatsWrite(pass *lint.Pass, lhs ast.Expr, where string) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if !namedTypeIs(pass.Info.TypeOf(sel.X), "Stats") {
		return
	}
	pass.Reportf(lhs.Pos(),
		"write to Stats field %s inside a %s: evidence/statistics merges must happen at the "+
			"sequential fold site after the wave completes, not on pool goroutines",
		sel.Sel.Name, where)
}

// namedTypeIs reports whether t (through pointers) is a named type with
// the given name.
func namedTypeIs(t types.Type, name string) bool {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u.Obj().Name() == name
		default:
			return false
		}
	}
}
