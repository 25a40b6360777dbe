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

func TestDetrand(t *testing.T)  { linttest.Run(t, "testdata", "detrand", rules.Detrand) }
func TestGospawn(t *testing.T)  { linttest.Run(t, "testdata", "gospawn", rules.Gospawn) }
func TestMaporder(t *testing.T) { linttest.Run(t, "testdata", "maporder", rules.Maporder) }

// TestSuiteShape pins the suite: three analyzers, sorted, documented.
func TestSuiteShape(t *testing.T) {
	suite := rules.Suite()
	want := []string{"detrand", "gospawn", "maporder"}
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
}
