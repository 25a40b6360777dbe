// Package linttest is the analysistest-style harness for the predlint
// suite: it loads a GOPATH-shaped testdata package (testdata/src/<path>),
// type-checks it (standard-library imports are resolved from source, other
// testdata packages recursively), runs one analyzer, and diffs the
// diagnostics against `// want "substring"` comments in the sources.
//
// Grammar: a flagged line carries a trailing comment of one or more quoted
// substrings, each of which must appear in the message of a diagnostic
// reported on that line:
//
//	rand.Shuffle(n, swap) // want "global math/rand stream"
//
// Every diagnostic must be covered by a want on its line, and every want
// must be matched — extra and missing findings both fail the test.
//
// A fixture package may span multiple files: every .go file under
// testdata/src/<path> is parsed and type-checked together (in directory
// order), and wants are matched per (file, line), so cross-file analyses
// are exercisable. The maporder fixture uses this shape.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// Run type-checks testdata/src/<pkgPath> beneath root, analyzes it with a
// and matches diagnostics against the package's want comments. Fatal on
// any parse or type error.
func Run(t *testing.T, root, pkgPath string, a *lint.Analyzer) {
	t.Helper()
	h := &harness{
		fset: token.NewFileSet(),
		root: root,
		pkgs: make(map[string]*types.Package),
	}
	h.std = importer.ForCompiler(h.fset, "source", nil)
	tpkg, files, info, err := h.load(pkgPath)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	pkg := &lint.Package{
		PkgPath: pkgPath,
		Dir:     filepath.Join(root, "src", pkgPath),
		Fset:    h.fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}
	diags, err := lint.RunSingle(pkg, a)
	if err != nil {
		t.Fatalf("linttest: analyzer %s: %v", a.Name, err)
	}
	wants := collectWants(t, pkg)
	matchDiags(t, pkg.Fset, a.Name, diags, wants)
}

// want is one expectation: a substring that must appear in a diagnostic
// message on a specific line.
type want struct {
	file    string
	line    int
	substr  string
	matched bool
}

// collectWants parses `// want "…"` trailing comments.
func collectWants(t *testing.T, pkg *lint.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(text, "want ")
				n := 0
				for {
					rest = strings.TrimSpace(rest)
					if rest == "" {
						break
					}
					if rest[0] != '"' {
						t.Fatalf("%s:%d: malformed want comment (expected quoted substrings): %s", pos.Filename, pos.Line, c.Text)
					}
					s, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s:%d: malformed want comment: %v", pos.Filename, pos.Line, err)
					}
					unq, _ := strconv.Unquote(s)
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, substr: unq})
					rest = rest[len(s):]
					n++
				}
				if n == 0 {
					t.Fatalf("%s:%d: want comment without expectations", pos.Filename, pos.Line)
				}
			}
		}
	}
	return wants
}

// matchDiags pairs diagnostics with wants one-to-one by (file, line,
// substring containment).
func matchDiags(t *testing.T, fset *token.FileSet, analyzer string, diags []lint.Diagnostic, wants []*want) {
	t.Helper()
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		covered := false
		for _, w := range wants {
			if w.matched || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if strings.Contains(d.Message, w.substr) {
				w.matched = true
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("%s:%d: unexpected %s finding: %s", pos.Filename, pos.Line, analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected %s finding containing %q, got none", w.file, w.line, analyzer, w.substr)
		}
	}
}

// harness resolves imports for testdata packages: sibling testdata
// packages first, the standard library (from source) otherwise.
type harness struct {
	fset *token.FileSet
	root string
	std  types.Importer
	pkgs map[string]*types.Package
}

func (h *harness) Import(path string) (*types.Package, error) {
	if pkg, ok := h.pkgs[path]; ok {
		return pkg, nil
	}
	if dir := filepath.Join(h.root, "src", path); dirExists(dir) {
		pkg, _, _, err := h.load(path)
		return pkg, err
	}
	return h.std.Import(path)
}

func (h *harness) load(pkgPath string) (*types.Package, []*ast.File, *types.Info, error) {
	dir := filepath.Join(h.root, "src", pkgPath)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("reading testdata package %s: %v", pkgPath, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(h.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil, nil, fmt.Errorf("testdata package %s has no Go files", pkgPath)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: h}
	pkg, err := conf.Check(pkgPath, h.fset, files, info)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("type-checking testdata package %s: %v", pkgPath, err)
	}
	h.pkgs[pkgPath] = pkg
	return pkg, files, info, nil
}

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}
