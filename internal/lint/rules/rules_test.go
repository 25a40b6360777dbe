package rules_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
	"repro/internal/lint/rules"
)

// Each analyzer runs over its GOPATH-shaped testdata package; the package
// mixes flagged cases (pinned by // want comments) with clean idioms that
// must stay silent.

func TestDetrand(t *testing.T)     { linttest.Run(t, "testdata", "detrand", rules.Detrand) }
func TestCtxflow(t *testing.T)     { linttest.Run(t, "testdata", "ctxflow", rules.Ctxflow) }
func TestGospawn(t *testing.T)     { linttest.Run(t, "testdata", "gospawn", rules.Gospawn) }
func TestMaporder(t *testing.T)    { linttest.Run(t, "testdata", "maporder", rules.Maporder) }
func TestErrtaxonomy(t *testing.T) { linttest.Run(t, "testdata", "errtaxonomy", rules.Errtaxonomy) }
func TestAtomicwrite(t *testing.T) { linttest.Run(t, "testdata", "atomicwrite", rules.Atomicwrite) }
func TestAtomicmix(t *testing.T)   { linttest.Run(t, "testdata", "atomicmix", rules.Atomicmix) }

// TestSuiteShape pins the suite: seven analyzers, sorted, documented.
func TestSuiteShape(t *testing.T) {
	suite := rules.Suite()
	want := []string{
		"atomicmix", "atomicwrite", "ctxflow", "detrand",
		"errtaxonomy", "gospawn", "maporder",
	}
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("suite[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run", a.Name)
		}
	}
}

// TestAnalyzersFlagEverywhere documents the analyzer/driver split: the
// analyzers themselves know nothing about package paths — scoping (e.g.
// gospawn's carve-out for internal/exec) lives in lint.DefaultTargets.
func TestAnalyzersFlagEverywhere(t *testing.T) {
	targets := lint.DefaultTargets()
	for _, a := range rules.Suite() {
		if targets[a.Name] == nil {
			t.Errorf("analyzer %s has no target config: it would silently run nowhere or everywhere", a.Name)
		}
	}
	if tg := targets["gospawn"]; tg != nil {
		if tg.Match("repro/internal/exec") {
			t.Error("gospawn must not target internal/exec (the pool implementation spawns goroutines by design)")
		}
		if !tg.Match("repro/internal/core") {
			t.Error("gospawn must target internal/core")
		}
	}
	if tg := targets["atomicwrite"]; tg != nil && !tg.Match("repro/internal/catalog") {
		t.Error("atomicwrite must target internal/catalog")
	}
	if tg := targets["atomicmix"]; tg != nil && !tg.Match("repro/internal/obs") {
		t.Error("atomicmix must target the whole module including internal/obs")
	}
}
