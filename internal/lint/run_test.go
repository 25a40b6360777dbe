package lint_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
	"repro/internal/lint/rules"
)

// TestSuppressionEndToEnd runs the full suite over testdata/src/suppress
// and checks the whole suppression pipeline: both directive scopes
// (same-line, line-above) suppress their finding; malformed directives (no
// reason, unknown analyzer) surface as unsuppressible "predlint" findings;
// the uncovered violation survives; and the counters the CI summary prints
// are exact.
func TestSuppressionEndToEnd(t *testing.T) {
	pkg := linttest.Load(t, "testdata", "suppress")
	res, err := lint.Run([]*lint.Package{pkg}, rules.Suite(), nil, "", lint.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// 2 detrand findings suppressed by 2 well-formed directives (same-line
	// and line-above).
	if res.Suppressed != 2 {
		t.Errorf("Suppressed = %d, want 2", res.Suppressed)
	}
	if res.Directives != 2 {
		t.Errorf("Directives = %d, want 2 (malformed directives must not count)", res.Directives)
	}

	// Survivors: the uncovered rand.Int, the go statement whose directive
	// was malformed, and the two malformed directives themselves.
	byAnalyzer := make(map[string][]string)
	for _, f := range res.Findings {
		byAnalyzer[f.Analyzer] = append(byAnalyzer[f.Analyzer], f.Message)
	}
	if n := len(byAnalyzer["detrand"]); n != 1 {
		t.Errorf("surviving detrand findings = %d, want 1 (only the uncovered draw): %v", n, byAnalyzer["detrand"])
	}
	if n := len(byAnalyzer["gospawn"]); n != 1 {
		t.Errorf("surviving gospawn findings = %d, want 1 (its directive has no reason): %v", n, byAnalyzer["gospawn"])
	}
	invalid := byAnalyzer[lint.InvalidDirectiveAnalyzer]
	if len(invalid) != 2 {
		t.Fatalf("predlint (malformed-directive) findings = %d, want 2: %v", len(invalid), invalid)
	}
	wantReason, wantUnknown := false, false
	for _, msg := range invalid {
		if strings.Contains(msg, "without a reason") {
			wantReason = true
		}
		if strings.Contains(msg, `unknown analyzer "nosuchcheck"`) {
			wantUnknown = true
		}
	}
	if !wantReason {
		t.Errorf("no malformed-directive finding for the reasonless directive: %v", invalid)
	}
	if !wantUnknown {
		t.Errorf("no malformed-directive finding for the unknown analyzer: %v", invalid)
	}

	// The summary line is what CI prints; pin its counters.
	sum := res.Summary()
	if !strings.Contains(sum, "2 suppressed by 2 directives") {
		t.Errorf("Summary() = %q, want it to report 2 suppressed by 2 directives", sum)
	}
}

// TestStrictStaleDirectives pins -strict semantics over testdata/src/stale:
// a never-used directive is a "predlint" finding only under Strict, a used
// directive never is, and DirectiveUses itemizes both.
func TestStrictStaleDirectives(t *testing.T) {
	pkg := linttest.Load(t, "testdata", "stale")
	suite := rules.Suite()

	// Default mode: the unused maporder directive is tolerated.
	res, err := lint.Run([]*lint.Package{pkg}, suite, nil, "", lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 0 {
		t.Errorf("non-strict run has %d findings, want 0: %v", len(res.Findings), res.Findings)
	}
	if len(res.DirectiveUses) != 2 {
		t.Fatalf("DirectiveUses = %d entries, want 2: %v", len(res.DirectiveUses), res.DirectiveUses)
	}
	if u := res.DirectiveUses[0]; u.Uses != 1 || u.Analyzers[0] != "detrand" {
		t.Errorf("first directive use = %+v, want detrand with 1 use", u)
	}
	if u := res.DirectiveUses[1]; u.Uses != 0 || u.Analyzers[0] != "maporder" {
		t.Errorf("second directive use = %+v, want maporder with 0 uses", u)
	}

	// Strict mode: the unused directive fails the run.
	res, err = lint.Run([]*lint.Package{pkg}, suite, nil, "", lint.Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("strict run has %d findings, want 1: %v", len(res.Findings), res.Findings)
	}
	f := res.Findings[0]
	if f.Analyzer != lint.InvalidDirectiveAnalyzer {
		t.Errorf("stale finding attributed to %q, want %q", f.Analyzer, lint.InvalidDirectiveAnalyzer)
	}
	if !strings.Contains(f.Message, "stale") || !strings.Contains(f.Message, "maporder") {
		t.Errorf("stale finding message = %q, want it to name the stale maporder directive", f.Message)
	}
}

// TestTargetMatch pins the package-selector semantics the driver config
// relies on.
func TestTargetMatch(t *testing.T) {
	tg := &lint.Target{Module: "repro", Include: []string{"", "internal/core"}, Exclude: []string{"internal/core/testutil"}}
	cases := []struct {
		pkg  string
		want bool
	}{
		{"repro", true},                         // "" includes the module root
		{"repro/internal/core", true},           // prefix include
		{"repro/internal/core/sub", true},       // nested beneath an include
		{"repro/internal/corelib", false},       // not a path-segment match
		{"repro/internal/core/testutil", false}, // exclude wins
		{"otae/internal/core", false},           // other module never matches
		{"repro/internal/engine", false},        // not included
	}
	for _, c := range cases {
		if got := tg.Match(c.pkg); got != c.want {
			t.Errorf("Match(%q) = %t, want %t", c.pkg, got, c.want)
		}
	}
}
