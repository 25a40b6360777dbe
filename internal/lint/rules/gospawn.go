package rules

import (
	"go/ast"

	"repro/internal/lint"
)

// Gospawn enforces the concurrency invariant PRs 1 and 5 established: all
// data-path parallelism goes through the exec.Pool's plan/evaluate/ordered-
// merge shape (and its gated, breaker-aware variant), which is what makes
// results bit-for-bit identical at any parallelism level. A stray `go`
// statement anywhere else introduces scheduling nondeterminism the fold
// cannot repair. The driver exempts internal/exec, internal/resilience and
// the cmd entry points (server lifecycle goroutines); everywhere else a
// goroutine is a finding.
var Gospawn = &lint.Analyzer{
	Name: "gospawn",
	Doc: "forbid go statements outside the exec pool, resilience timeouts and cmd entry points " +
		"(PRs 1 & 5: all data-path concurrency flows through the deterministic pool fold)",
	Run: runGospawn,
}

func runGospawn(pass *lint.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"goroutine outside the exec pool: route data-path concurrency through exec.Pool so the deterministic plan/evaluate/merge fold holds")
			}
			return true
		})
	}
	return nil
}
