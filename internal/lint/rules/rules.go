// Package rules holds the predlint analyzer suite: three project-specific
// determinism checks, each guarding an invariant whose seeded violation no
// test catches (DESIGN.md, "Invariants & static enforcement", names the
// seed for each).
// Every analyzer flags ALL occurrences of its pattern in whatever package
// it is handed; deciding which packages an analyzer covers is the driver's
// job (internal/lint/config.go), so the testdata suites exercise analyzers
// directly without faking package paths.
//
// All three are single-statement AST matchers over type information. The
// invariants a test or the type system can hold are held there instead
// (DESIGN.md, "Held by construction").
package rules

import (
	"go/ast"
	"go/token"

	"repro/internal/lint"
)

// Suite returns the full analyzer suite in stable (alphabetical) order.
func Suite() []*lint.Analyzer {
	return []*lint.Analyzer{
		Detrand,
		Gospawn,
		Maporder,
	}
}

// eachFunc invokes fn for every function (declaration or literal) with a
// body in the file.
func eachFunc(f *ast.File, fn func(node ast.Node, body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				fn(d, d.Body)
			}
		case *ast.FuncLit:
			if d.Body != nil {
				fn(d, d.Body)
			}
		}
		return true
	})
}

// callsAnyAfter reports whether the block contains, at or after pos, a call
// to one of the named qualified functions (package path → names) or to a
// method with one of the given method names. It is the "the function sorts
// what it accumulated" escape hatch used by maporder.
func callsAnyAfter(pass *lint.Pass, body *ast.BlockStmt, pos token.Pos, qualified map[string]map[string]bool, methods map[string]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		if path, name := lint.QualifiedCallee(pass.Info, call); path != "" {
			if names, ok := qualified[path]; ok && names[name] {
				found = true
				return false
			}
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && methods[sel.Sel.Name] {
			found = true
			return false
		}
		return true
	})
	return found
}
