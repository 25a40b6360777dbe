package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// writeModule lays out a throwaway module named like this repo (the
// default targets key off the module path) and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module repro\n\ngo 1.24\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestSeededViolationFailsLint is the acceptance check from the issue:
// planting a `go` statement in internal/core must fail the lint.
func TestSeededViolationFailsLint(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/core/bad.go": `package core

func leak(ch chan int) {
	go func() { ch <- 1 }()
}
`,
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "[gospawn]") {
		t.Errorf("stdout does not report the gospawn finding:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "predlint: 1 findings") {
		t.Errorf("stderr summary missing:\n%s", stderr.String())
	}
}

// TestDirectiveSuppressesSeededViolation: the same violation under a
// well-formed //predlint:allow passes, and the summary counts it.
func TestDirectiveSuppressesSeededViolation(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/core/allowed.go": `package core

func leak(ch chan int) {
	//predlint:allow gospawn — exercising suppression in a driver test
	go func() { ch <- 1 }()
}
`,
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "1 suppressed by 1 directives") {
		t.Errorf("stderr summary does not count the suppression:\n%s", stderr.String())
	}
}

// TestReasonlessDirectiveStillFails: a directive without a reason is
// itself a finding, so it cannot be used to sneak a violation through.
func TestReasonlessDirectiveStillFails(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/core/sneaky.go": `package core

func leak(ch chan int) {
	//predlint:allow gospawn
	go func() { ch <- 1 }()
}
`,
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "without a reason") {
		t.Errorf("stdout does not report the reasonless directive:\n%s", stdout.String())
	}
}

// TestJSONOutput: -json emits a parseable lint.Result on stdout, including
// the per-directive use counts.
func TestJSONOutput(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/core/bad.go": `package core

func leak(ch chan int) {
	go func() { ch <- 1 }()
}
`,
		"internal/core/allowed.go": `package core

func covered(ch chan int) {
	//predlint:allow gospawn — exercising the directive_uses JSON field
	go func() { ch <- 2 }()
}
`,
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-json", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	var res lint.Result
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, stdout.String())
	}
	if len(res.Findings) != 1 || res.Findings[0].Analyzer != "gospawn" {
		t.Errorf("findings = %+v, want one gospawn finding", res.Findings)
	}
	if res.Findings[0].File != filepath.Join("internal", "core", "bad.go") {
		t.Errorf("finding file = %q, want module-relative path", res.Findings[0].File)
	}
	if len(res.Analyzers) != 4 {
		t.Errorf("analyzers = %v, want the 4-analyzer suite", res.Analyzers)
	}
	if res.Suppressed != 1 || res.Directives != 1 {
		t.Errorf("suppressed/directives = %d/%d, want 1/1", res.Suppressed, res.Directives)
	}
	if len(res.DirectiveUses) != 1 {
		t.Fatalf("directive_uses = %+v, want one entry", res.DirectiveUses)
	}
	u := res.DirectiveUses[0]
	if u.File != filepath.Join("internal", "core", "allowed.go") || u.Uses != 1 ||
		len(u.Analyzers) != 1 || u.Analyzers[0] != "gospawn" || u.Reason == "" {
		t.Errorf("directive_uses[0] = %+v, want the gospawn directive with 1 use and its reason", u)
	}
}

// TestStrictStaleDirectiveFailsRun: a directive that suppresses nothing
// passes by default but fails under -strict.
func TestStrictStaleDirectiveFailsRun(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/core/stale.go": `package core

//predlint:allow maporder — historical exception, nothing left to excuse
func nothing() {}
`,
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("non-strict exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-C", dir, "-strict", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("strict exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "stale") || !strings.Contains(stdout.String(), "maporder") {
		t.Errorf("stdout does not report the stale maporder directive:\n%s", stdout.String())
	}
}

// TestSeededFlowViolationsFailLint seeds the one cross-statement invariant
// the suite still owns — a map range feeding an emitted slice with no sort
// later in the function — into internal/engine and requires the lint to
// fail on it, while the collect-then-sort idiom beside it stays clean.
// (The other flow invariants are held by construction or by a test; see
// DESIGN.md, "Held by construction".)
func TestSeededFlowViolationsFailLint(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/engine/bad_order.go": `package engine

import "sort"

func emit(m map[int]bool) []int {
	var rows []int
	for row := range m {
		rows = append(rows, row)
	}
	return rows
}

func emitSorted(m map[int]bool) []int {
	var rows []int
	for row := range m {
		rows = append(rows, row)
	}
	sort.Ints(rows)
	return rows
}
`,
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if n := strings.Count(stdout.String(), "[maporder]"); n != 1 {
		t.Errorf("stdout reports %d [maporder] findings, want 1 (emit only):\n%s", n, stdout.String())
	}
}

// TestListFlag: -list describes the suite without loading packages.
func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"atomicwrite", "detrand", "gospawn", "maporder"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, stdout.String())
		}
	}
}

// TestRepositoryIsClean runs the real suite over the real tree — the same
// invocation CI blocks on, -strict included, so a stale directive anywhere
// in the repo fails here first — and holds the tree to its directive
// budget: at most 4 //predlint:allow directives, the catalog's atomicwrite
// protocol sites. Skipped under -short (it type-checks the whole module).
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-tree lint is not a short test")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", root, "-strict", "-json", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("predlint over the repository exits %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "predlint: 0 findings") {
		t.Errorf("summary does not report a clean tree:\n%s", stderr.String())
	}
	var res lint.Result
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, stdout.String())
	}
	if res.Directives > 4 {
		t.Errorf("the tree carries %d //predlint:allow directives, budget is 4:\n%+v", res.Directives, res.DirectiveUses)
	}
}
