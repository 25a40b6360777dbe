package rules

import (
	"go/ast"

	"repro/internal/lint"
)

// Atomicmix keeps mixed atomic/plain access — a plain load racing an atomic
// store, the PR 8 drive-by bug class: the /metrics collectors scrape the
// counters the engine mutates — a type error by construction: every atomic
// in the module is a typed one (atomic.Int64 and friends), whose value has
// no plain access path, and this rule forbids the function-style API
// (atomic.AddInt64(&x, …)) that would let a plain int64 be half-atomic.
var Atomicmix = &lint.Analyzer{
	Name: "atomicmix",
	Doc: "forbid function-style sync/atomic calls (atomic.AddInt64(&x, …)): a plain variable updated that way " +
		"can still be read or written plainly elsewhere — a data race (PR 8 bug class); use typed atomics (atomic.Int64)",
	Run: runAtomicmix,
}

func runAtomicmix(pass *lint.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if path, fn := lint.QualifiedCallee(pass.Info, call); path == "sync/atomic" {
					pass.Reportf(call.Pos(),
						"function-style atomic.%s leaves its operand open to mixed atomic/plain access — a data race; "+
							"declare the variable as a typed atomic (atomic.Int64, atomic.Pointer[T], …) instead", fn)
				}
			}
			return true
		})
	}
	return nil
}
