package plan

import (
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestParseFailurePolicy(t *testing.T) {
	for in, want := range map[string]FailurePolicy{
		"": FailOnError, "fail": FailOnError, "degrade": DegradeFailed,
	} {
		got, err := ParseFailurePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseFailurePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	// "skip" was folded into "degrade": both dropped the same rows.
	for _, in := range []string{"explode", "skip"} {
		if _, err := ParseFailurePolicy(in); err == nil {
			t.Errorf("ParseFailurePolicy(%q): want an error for an unknown policy", in)
		}
	}
}

// TestStatementLayering holds the import direction the AST's home buys: the
// statement is declared below the parser and the engine, so neither this
// package nor internal/sqlparse may import the engine or anything the engine
// alone needs (the fuzzed parser links the AST and internal/core, no more),
// and this package imports nothing of the module above internal/core. It
// reads import clauses only, so it needs no build.
func TestStatementLayering(t *testing.T) {
	banned := []string{"engine", "catalog", "table", "ml", "obs"}
	for _, dir := range []string{".", "../sqlparse"} {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		imports := 0
		for _, pkg := range pkgs {
			for name, f := range pkg.Files {
				for _, imp := range f.Imports {
					imports++
					path, _ := strconv.Unquote(imp.Path.Value)
					rest, internal := strings.CutPrefix(path, "repro/internal/")
					if internal && (slices.Contains(banned, rest) || (dir == "." && rest != "core")) {
						t.Errorf("%s imports %s", name, path)
					}
				}
			}
		}
		if imports == 0 {
			t.Fatalf("no import clauses parsed in %s", dir)
		}
	}
}
