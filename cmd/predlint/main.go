// Command predlint runs the engine's invariant suite (internal/lint/rules)
// over the repository: determinism (detrand, maporder, gospawn), context
// plumbing (ctxflow), the typed failure taxonomy (errtaxonomy), atomic
// catalog writes (atomicwrite) and mixed atomic/plain access (atomicmix).
// It is a blocking CI step: any finding — including a malformed
// //predlint:allow directive — fails the run.
//
// Usage:
//
//	go run ./cmd/predlint ./...                  # lint the whole module
//	go run ./cmd/predlint -json ./...            # machine-readable findings
//	go run ./cmd/predlint -list                  # describe the analyzer suite
//	go run ./cmd/predlint -tests ./...           # include _test.go variants
//	go run ./cmd/predlint -only maporder ./...   # run a subset
//	go run ./cmd/predlint -skip ctxflow ./...    # run all but a subset
//	go run ./cmd/predlint -strict ./...          # stale directives are findings
//
// -only and -skip take comma-separated analyzer names; naming an unknown
// analyzer is a usage error. Under a filtered suite, directives naming
// analyzers that did not run are neither unknown nor stale.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure. A one-line
// summary (findings, suppressions, directives) always goes to stderr so
// suppression creep stays visible in CI logs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

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
	strict := fs.Bool("strict", false, "report never-used //predlint:allow directives as findings")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	skip := fs.String("skip", "", "comma-separated analyzer names to exclude")
	dir := fs.String("C", "", "run as if launched from this directory (defaults to the working directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	full := rules.Suite()
	suite, err := filterSuite(full, *only, *skip)
	if err != nil {
		fmt.Fprintf(stderr, "predlint: %v\n", err)
		return 2
	}
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
	opts := lint.Options{Strict: *strict}
	for _, a := range full {
		opts.KnownAnalyzers = append(opts.KnownAnalyzers, a.Name)
	}
	res, err := lint.Run(pkgs, suite, lint.DefaultTargets(), base, opts)
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

// filterSuite applies -only/-skip. Both take comma-separated analyzer
// names; naming an analyzer not in the suite is a usage error (a typo
// silently running everything — or nothing — is how invariants rot).
func filterSuite(suite []*lint.Analyzer, only, skip string) ([]*lint.Analyzer, error) {
	known := make(map[string]bool, len(suite))
	for _, a := range suite {
		known[a.Name] = true
	}
	parse := func(flagName, spec string) (map[string]bool, error) {
		if spec == "" {
			return nil, nil
		}
		set := make(map[string]bool)
		for _, name := range strings.Split(spec, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if !known[name] {
				return nil, fmt.Errorf("-%s: unknown analyzer %q (see -list)", flagName, name)
			}
			set[name] = true
		}
		return set, nil
	}
	onlySet, err := parse("only", only)
	if err != nil {
		return nil, err
	}
	skipSet, err := parse("skip", skip)
	if err != nil {
		return nil, err
	}
	if onlySet == nil && skipSet == nil {
		return suite, nil
	}
	var out []*lint.Analyzer
	for _, a := range suite {
		if onlySet != nil && !onlySet[a.Name] {
			continue
		}
		if skipSet[a.Name] {
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-only/-skip filtered out every analyzer")
	}
	return out, nil
}
