package lint

import (
	"fmt"
	"path/filepath"
	"strings"
)

// Result is one predlint run over a set of packages.
type Result struct {
	// Findings are the violations, sorted by position. A non-empty slice
	// means the run fails.
	Findings []Finding `json:"findings"`
	// Packages counts analyzed packages.
	Packages int `json:"packages"`
	// Analyzers names the suite that ran, in run order.
	Analyzers []string `json:"analyzers"`
}

// Summary renders the one-line report CI prints win or lose, e.g.
//
//	predlint: 0 findings, 3 analyzers over 31 packages
func (r Result) Summary() string {
	return fmt.Sprintf("predlint: %d findings, %d analyzers over %d packages",
		len(r.Findings), len(r.Analyzers), r.Packages)
}

// Run applies the suite to pkgs. targets maps analyzer name to the package
// selector deciding where it applies (nil selector = everywhere). baseDir,
// when non-empty, roots finding file paths (module-relative paths keep
// output stable across checkouts).
func Run(pkgs []*Package, suite []*Analyzer, targets map[string]*Target, baseDir string) (Result, error) {
	res := Result{Packages: len(pkgs)}
	for _, a := range suite {
		res.Analyzers = append(res.Analyzers, a.Name)
	}

	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range suite {
			if t := targets[a.Name]; t != nil && !t.Match(pkg.PkgPath) {
				continue
			}
			diags, err := RunSingle(pkg, a)
			if err != nil {
				return Result{}, fmt.Errorf("lint: analyzer %s on %s: %v", a.Name, pkg.PkgPath, err)
			}
			for _, d := range diags {
				p := pkg.Fset.Position(d.Pos)
				findings = append(findings, Finding{
					File:     p.Filename,
					Line:     p.Line,
					Col:      p.Column,
					Analyzer: a.Name,
					Message:  d.Message,
				})
			}
		}
	}
	if baseDir != "" {
		for i := range findings {
			if rel, err := filepath.Rel(baseDir, findings[i].File); err == nil && !strings.HasPrefix(rel, "..") {
				findings[i].File = rel
			}
		}
	}
	sortFindings(findings)
	res.Findings = dedupeFindings(findings)
	if res.Findings == nil {
		res.Findings = []Finding{} // a clean run marshals as [], not null
	}
	return res, nil
}

// RunSingle applies one analyzer to one package and returns its
// diagnostics — the entry point linttest harnesses use to assert on
// exactly what an analyzer reports.
func RunSingle(pkg *Package, a *Analyzer) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		PkgPath:  pkg.PkgPath,
	}
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	return pass.diags, nil
}

// Target selects the packages an analyzer applies to by module-relative
// import-path prefix. Include "" matches the module root package.
type Target struct {
	// Module is the module path prefix stripped before matching (e.g.
	// "repro"). Packages outside Module never match.
	Module string
	// Include lists path prefixes (after stripping Module) the analyzer
	// covers; empty means every package in Module.
	Include []string
	// Exclude lists path prefixes carved out of Include.
	Exclude []string
}

// Match reports whether the analyzer applies to pkgPath.
func (t *Target) Match(pkgPath string) bool {
	rel, ok := moduleRel(t.Module, pkgPath)
	if !ok {
		return false
	}
	for _, e := range t.Exclude {
		if prefixMatch(e, rel) {
			return false
		}
	}
	if len(t.Include) == 0 {
		return true
	}
	for _, inc := range t.Include {
		if prefixMatch(inc, rel) {
			return true
		}
	}
	return false
}

// moduleRel strips the module prefix: ("repro", "repro/internal/core") →
// ("internal/core", true); the root package maps to "".
func moduleRel(module, pkgPath string) (string, bool) {
	if pkgPath == module {
		return "", true
	}
	if strings.HasPrefix(pkgPath, module+"/") {
		return pkgPath[len(module)+1:], true
	}
	return "", false
}

// prefixMatch reports whether rel equals prefix or sits beneath it.
func prefixMatch(prefix, rel string) bool {
	if prefix == rel {
		return true
	}
	return prefix != "" && strings.HasPrefix(rel, prefix+"/")
}
