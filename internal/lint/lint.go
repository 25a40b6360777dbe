// Package lint is the engine-specific static-analysis substrate behind
// cmd/predlint. It mechanically enforces the determinism invariants no test
// catches reliably — seeded randomness, pooled concurrency and ordered map
// iteration on evidence paths — so a future change that silently violates
// one becomes un-mergeable instead of un-noticed. (Cancellation, the
// failure taxonomy and the catalog's crash safety are held by tests.)
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis API
// shape (Analyzer, Pass, Diagnostic) so analyzers read like standard
// go/analysis checkers, but it is built entirely on the standard library:
// the toolchain this repository builds under has no module cache, so the
// loader (load.go) type-checks the full dependency closure from source via
// `go list -deps -json` instead of depending on x/tools/go/packages.
//
// There is no in-code suppression. A deliberate exception is a change to
// the code, or a package carve-out with its reason in config.go.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check. The Run function inspects a single
// package and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in findings and -list output.
	// It must be a lowercase single word.
	Name string
	// Doc is a one-paragraph description: the invariant enforced and the PR
	// that established it.
	Doc string
	// Run inspects pass.Files and calls pass.Report for each violation.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed source files, in load order.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checking facts for Files.
	Info *types.Info
	// PkgPath is the package's import path with any test-variant suffix
	// stripped (i.e. the path analyzers and targeting rules reason about).
	PkgPath string

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, positioned by token.Pos.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is one reported violation, positioned and attributed.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders the conventional file:line:col: [analyzer] message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// dedupeFindings drops exact duplicates (the same file can be analyzed
// twice when test variants of a package are loaded alongside it). Input
// must be sorted.
func dedupeFindings(fs []Finding) []Finding {
	out := fs[:0]
	for i, f := range fs {
		if i > 0 && f == fs[i-1] {
			continue
		}
		out = append(out, f)
	}
	return out
}

// PkgNamePath resolves an identifier that syntactically looks like a
// package qualifier to the imported package path, or "" when id does not
// denote an imported package. Analyzers use this instead of matching the
// identifier text so import aliasing cannot dodge a check.
func PkgNamePath(info *types.Info, id *ast.Ident) string {
	if id == nil {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// QualifiedCallee returns (package path, function name) when call invokes a
// package-level function through a qualified identifier (pkg.Fn form), and
// ("", "") otherwise.
func QualifiedCallee(info *types.Info, call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	path := PkgNamePath(info, id)
	if path == "" {
		return "", ""
	}
	return path, sel.Sel.Name
}
