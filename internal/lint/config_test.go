package lint_test

import (
	"testing"

	"repro/internal/lint"
)

// TestDefaultTargetsObsCarveOut pins the observability determinism
// contract at the config level: detrand covers every result-producing
// package but NOT repro/internal/obs, the single sanctioned wall-clock
// site. Combined with the rules-level detrand test (time.Now is always
// flagged where the analyzer runs), this proves a time.Now() outside
// internal/obs fails the suite.
func TestDefaultTargetsObsCarveOut(t *testing.T) {
	targets := lint.DefaultTargets()
	detrand := targets["detrand"]
	if detrand == nil {
		t.Fatal("no detrand target")
	}
	for _, pkg := range []string{
		"repro", "repro/internal/core", "repro/internal/engine",
		"repro/internal/plan", "repro/internal/exec", "repro/internal/resilience",
	} {
		if !detrand.Match(pkg) {
			t.Errorf("detrand must cover %s", pkg)
		}
	}
	if detrand.Match("repro/internal/obs") {
		t.Error("detrand covers repro/internal/obs: the sanctioned clock package must be carved out here")
	}

	maporder := targets["maporder"]
	if maporder == nil {
		t.Fatal("no maporder target")
	}
	if !maporder.Match("repro/internal/obs") {
		t.Error("maporder must cover repro/internal/obs: exposition output is built from maps")
	}
}

// TestDefaultTargetsCoverBatchPipeline pins that the batch iterator code
// paths introduced with the Volcano executor stay under the determinism
// analyzers: the batch operators (internal/engine), the wave runner
// (internal/core), the plan shapes they compile from (internal/plan), the
// pool they fan out through (internal/exec) and the public streaming API
// (the module root, "") are all detrand AND maporder targets. A batch
// operator that grabbed wall-clock time or ranged a map into an emitted
// batch must fail the suite. (A dropped context on the Open/Next path is
// the cancellation tests' to catch: cancel_test.go at the module root.)
func TestDefaultTargetsCoverBatchPipeline(t *testing.T) {
	targets := lint.DefaultTargets()
	batchPath := []string{
		"repro", "repro/internal/core", "repro/internal/engine",
		"repro/internal/plan", "repro/internal/exec",
	}
	for _, analyzer := range []string{"detrand", "maporder"} {
		target := targets[analyzer]
		if target == nil {
			t.Fatalf("no %s target", analyzer)
		}
		for _, pkg := range batchPath {
			if !target.Match(pkg) {
				t.Errorf("%s must cover %s: the batch pipeline lives there", analyzer, pkg)
			}
		}
	}
}
