// Command predlint runs the engine's invariant suite (internal/lint/rules)
// over the repository: the determinism invariants (detrand, maporder,
// gospawn) whose seeded violations no test catches. It is a blocking CI
// step: any finding fails the run. There is no in-code suppression; an
// exception is a code change or a package carve-out in
// internal/lint/config.go.
//
// Usage:
//
//	go run ./cmd/predlint ./...                  # lint the whole module
//	go run ./cmd/predlint -json ./...            # machine-readable findings
//	go run ./cmd/predlint -list                  # describe the analyzer suite
//	go run ./cmd/predlint -tests ./...           # include _test.go variants
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure. A one-line
// summary (findings, analyzers, packages) always goes to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/lint"
	"repro/internal/lint/rules"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("predlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings and counters as JSON on stdout")
	list := fs.Bool("list", false, "describe the analyzer suite and exit")
	tests := fs.Bool("tests", false, "also analyze _test.go variants of the matched packages")
	dir := fs.String("C", "", "run as if launched from this directory (defaults to the working directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	suite := rules.Suite()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	root := *dir
	if root == "" {
		wd, err := os.Getwd()
		if err != nil {
			fmt.Fprintf(stderr, "predlint: %v\n", err)
			return 2
		}
		root = wd
	}
	loader := &lint.Loader{Dir: root, Tests: *tests}
	pkgs, err := loader.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "predlint: %v\n", err)
		return 2
	}
	base, err := filepath.Abs(root)
	if err != nil {
		base = root
	}
	res, err := lint.Run(pkgs, suite, lint.DefaultTargets(), base)
	if err != nil {
		fmt.Fprintf(stderr, "predlint: %v\n", err)
		return 2
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(stderr, "predlint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range res.Findings {
			fmt.Fprintln(stdout, f.String())
		}
	}
	fmt.Fprintln(stderr, res.Summary())
	if len(res.Findings) > 0 {
		return 1
	}
	return 0
}
