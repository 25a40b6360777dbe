package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// The loader type-checks the analysis targets and their full dependency
// closure from source. It shells out to `go list -deps -json` (the one
// toolchain facility guaranteed to exist wherever the repository builds)
// and replays the closure bottom-up through go/types, so it needs neither
// a populated module cache nor compiled export data. Standard-library
// dependencies are checked with IgnoreFuncBodies — only their exported
// shape matters — which keeps a whole-tree predlint run in seconds.

// Package is one loaded, type-checked package.
type Package struct {
	// PkgPath is the canonical import path: for a test variant
	// ("pkg [pkg.test]") it is the path under test, so targeting rules
	// treat test variants like the package they exercise.
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	Standard   bool
	ForTest    string
	GoFiles    []string
	ImportMap  map[string]string
	Module     *struct {
		Path      string
		Main      bool
		GoVersion string
	}
	Error *struct {
		Err string
	}
}

// Loader loads packages beneath one module root.
type Loader struct {
	// Dir is any directory inside the target module.
	Dir string
	// Tests also loads and analyzes test variants of the matched packages
	// (in-package _test.go files and external _test packages).
	Tests bool
}

// Load resolves patterns (e.g. "./...") to packages, type-checks them and
// their dependency closure, and returns the matched packages in `go list`
// order. Returned packages carry full types.Info; dependency-only packages
// are checked but not returned.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	matched, err := l.goList(false, patterns)
	if err != nil {
		return nil, err
	}
	want := make(map[string]bool, len(matched))
	for _, p := range matched {
		if skipListed(p) {
			continue
		}
		want[p.ImportPath] = true
	}
	closure, err := l.goList(true, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	checked := make(map[string]*types.Package, len(closure))
	checked["unsafe"] = types.Unsafe
	var out []*Package
	for _, p := range closure {
		if p.ImportPath == "unsafe" || skipListed(p) {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: load %s: %s", p.ImportPath, p.Error.Err)
		}
		target := want[p.ImportPath]
		pkg, err := checkOne(fset, p, checked, target)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = pkg.Types
		if target {
			out = append(out, pkg)
		}
	}
	return out, nil
}

// skipListed reports whether a listed package carries no checkable source:
// synthesized test binaries ("pkg.test") have only a generated main that
// never exists on disk.
func skipListed(p *listPkg) bool {
	return strings.HasSuffix(p.ImportPath, ".test") && p.ForTest == ""
}

// goList runs the go tool and decodes its JSON package stream. CGO is
// pinned off so the file lists are pure Go and identical across hosts.
func (l *Loader) goList(deps bool, patterns []string) ([]*listPkg, error) {
	args := []string{"list", "-json"}
	if deps {
		args = append(args, "-deps")
	}
	if l.Tests {
		args = append(args, "-test")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	cmd.Env = append(cmd.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(stdout))
	var pkgs []*listPkg
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// checkOne parses and type-checks a single package against the
// already-checked portion of the closure. full selects whether function
// bodies are checked and types.Info collected (needed only for analysis
// targets).
func checkOne(fset *token.FileSet, p *listPkg, checked map[string]*types.Package, full bool) (*Package, error) {
	files := make([]*ast.File, 0, len(p.GoFiles))
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	var info *types.Info
	if full {
		info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Uses:       make(map[*ast.Ident]types.Object),
			Defs:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
	}
	var firstErr error
	conf := types.Config{
		Importer:         &mapImporter{checked: checked, importMap: p.ImportMap},
		Sizes:            types.SizesFor("gc", runtime.GOARCH),
		IgnoreFuncBodies: !full,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	if p.Module != nil && p.Module.GoVersion != "" {
		conf.GoVersion = "go" + p.Module.GoVersion
	}
	tpkg, _ := conf.Check(p.ImportPath, fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", p.ImportPath, firstErr)
	}
	canonical := p.ImportPath
	if p.ForTest != "" {
		canonical = p.ForTest
	} else if i := strings.IndexByte(canonical, ' '); i >= 0 {
		canonical = canonical[:i]
	}
	return &Package{
		PkgPath: canonical,
		Dir:     p.Dir,
		Fset:    fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}

// mapImporter resolves imports against the already-checked closure,
// honoring the package's ImportMap (which redirects std-vendored paths and
// test-variant imports). The fallback source importer is never expected to
// fire — `go list -deps` lists every dependency first — but keeps a clear
// error if an ordering assumption ever breaks.
type mapImporter struct {
	checked   map[string]*types.Package
	importMap map[string]string
}

func (m *mapImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := m.importMap[path]; ok {
		path = mapped
	}
	if pkg, ok := m.checked[path]; ok {
		return pkg, nil
	}
	return nil, fmt.Errorf("lint: import %q not in dependency closure (go list ordering violated?)", path)
}
