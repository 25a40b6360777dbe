package lint_test

import (
	"testing"

	"repro/internal/lint"
)

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
