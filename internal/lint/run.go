package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Result is one predlint run over a set of packages.
type Result struct {
	// Findings are the surviving (unsuppressed) violations plus any
	// malformed directives, sorted by position. A non-empty slice means the
	// run fails.
	Findings []Finding `json:"findings"`
	// Suppressed counts findings covered by //predlint:allow directives.
	Suppressed int `json:"suppressed"`
	// Directives counts well-formed //predlint:allow directives seen, so
	// suppression creep is visible even when directives are broad.
	Directives int `json:"directives"`
	// Packages counts analyzed packages.
	Packages int `json:"packages"`
	// Analyzers names the suite that ran, in run order.
	Analyzers []string `json:"analyzers"`
	// DirectiveUses itemizes every well-formed directive with its
	// per-run suppression count, so -json consumers can audit exactly
	// which exceptions are load-bearing. Sorted by (file, line).
	DirectiveUses []DirectiveUse `json:"directive_uses"`
}

// DirectiveUse is one well-formed //predlint:allow directive and how
// many findings it suppressed in this run.
type DirectiveUse struct {
	File      string   `json:"file"`
	Line      int      `json:"line"`
	Analyzers []string `json:"analyzers"`
	Reason    string   `json:"reason"`
	Uses      int      `json:"uses"`
}

// Options tunes a Run.
type Options struct {
	// Strict reports never-used //predlint:allow directives as findings
	// under the pseudo-analyzer "predlint" (like malformed directives,
	// they are not themselves suppressible). CI runs strict so stale
	// suppressions rot loudly instead of silently widening the allowed
	// surface. A directive only counts as stale when every analyzer it
	// names actually ran — filtered runs (-only/-skip) cannot produce
	// false staleness.
	Strict bool
	// KnownAnalyzers names the full analyzer universe for directive
	// validation. When the run suite is filtered (-only/-skip), a
	// directive naming a known-but-not-run analyzer must be neither
	// "unknown" nor stale; empty means the run suite is the universe.
	KnownAnalyzers []string
}

// Summary renders the one-line report CI prints win or lose, e.g.
//
//	predlint: 0 findings, 14 suppressed by 12 directives, 6 analyzers over 18 packages
func (r Result) Summary() string {
	return fmt.Sprintf("predlint: %d findings, %d suppressed by %d directives, %d analyzers over %d packages",
		len(r.Findings), r.Suppressed, r.Directives, len(r.Analyzers), r.Packages)
}

// Run applies the suite to pkgs. targets maps analyzer name to the package
// selector deciding where it applies (nil selector = everywhere). baseDir,
// when non-empty, roots finding file paths (module-relative paths keep
// output stable across checkouts).
func Run(pkgs []*Package, suite []*Analyzer, targets map[string]*Target, baseDir string, opts Options) (Result, error) {
	ran := make(map[string]bool, len(suite))
	res := Result{Packages: len(pkgs)}
	for _, a := range suite {
		ran[a.Name] = true
		res.Analyzers = append(res.Analyzers, a.Name)
	}
	known := ran
	if len(opts.KnownAnalyzers) > 0 {
		known = make(map[string]bool, len(opts.KnownAnalyzers))
		for _, n := range opts.KnownAnalyzers {
			known[n] = true
		}
	}

	var raw []Finding
	var rawPos []token.Pos // parallel to raw, for function-scoped suppression
	sup := &suppressor{}
	for _, pkg := range pkgs {
		sup.collectDirectives(pkg.Fset, pkg.Files, known)
		for _, a := range suite {
			if t := targets[a.Name]; t != nil && !t.Match(pkg.PkgPath) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				PkgPath:  pkg.PkgPath,
			}
			if err := a.Run(pass); err != nil {
				return Result{}, fmt.Errorf("lint: analyzer %s on %s: %v", a.Name, pkg.PkgPath, err)
			}
			for _, d := range pass.diags {
				p := pkg.Fset.Position(d.Pos)
				raw = append(raw, Finding{
					File:     p.Filename,
					Line:     p.Line,
					Col:      p.Column,
					Analyzer: a.Name,
					Message:  d.Message,
				})
				rawPos = append(rawPos, d.Pos)
			}
		}
	}

	var surviving []Finding
	for i, f := range raw {
		if sup.suppress(f, rawPos[i]) {
			continue
		}
		surviving = append(surviving, f)
	}
	surviving = append(surviving, sup.invalid...)
	if opts.Strict {
		surviving = append(surviving, sup.stale(ran)...)
	}
	res.DirectiveUses = sup.uses()
	if baseDir != "" {
		for i := range surviving {
			if rel, err := filepath.Rel(baseDir, surviving[i].File); err == nil && !strings.HasPrefix(rel, "..") {
				surviving[i].File = rel
			}
		}
		for i := range res.DirectiveUses {
			if rel, err := filepath.Rel(baseDir, res.DirectiveUses[i].File); err == nil && !strings.HasPrefix(rel, "..") {
				res.DirectiveUses[i].File = rel
			}
		}
	}
	sort.Slice(res.DirectiveUses, func(i, j int) bool {
		a, b := res.DirectiveUses[i], res.DirectiveUses[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	if res.DirectiveUses == nil {
		res.DirectiveUses = []DirectiveUse{}
	}
	sortFindings(surviving)
	res.Findings = dedupeFindings(surviving)
	if res.Findings == nil {
		res.Findings = []Finding{} // a clean run marshals as [], not null
	}
	res.Suppressed, res.Directives = sup.counts()
	return res, nil
}

// RunSingle applies one analyzer to one package and returns its raw
// diagnostics, before suppression — the entry point linttest harnesses
// use to assert on exactly what an analyzer reports.
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
