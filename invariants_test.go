package predeval

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"strconv"
	"strings"
	"testing"
)

// The determinism contract (rows, Stats and persisted evidence are
// bit-identical for a fixed seed and fixed data at any parallelism × batch
// size) rests on three rules simple enough to check on the syntax tree of
// every non-test file. What has no syntactic form (ordered emission from
// maps, rank ties, the fold order of a shared breaker) is pinned by
// behavioural tests; DESIGN.md, "Invariants & static enforcement", lists
// which test catches which violation.

// goroutineDirs may contain go statements: the exec pool and its ordered
// fold, the resilience call-timeout watchdog, and the commands' server
// lifecycles. Anywhere else a goroutine schedules work in an order the
// fold cannot restore.
var goroutineDirs = []string{"internal/exec", "internal/resilience", "cmd"}

// randDir alone may import math/rand, wrapping it in the seeded RNG streams
// every other package draws from.
const randDir = "internal/stats"

// clockFree are the data-path packages, everything between a parsed query
// and its rows, Stats and persisted evidence: none may call time.Now,
// time.Since or time.Until. Their timings go through internal/obs, whose
// readings are display-only.
var clockFree = []string{
	"", // the public API
	"internal/core", "internal/engine", "internal/plan", "internal/solver",
	"internal/stats", "internal/catalog", "internal/exec", "internal/labels",
	"internal/table", "internal/sqlparse", "internal/resilience",
	"internal/ml", // GROUP ON virtual trains, scores and buckets on the row path
}

// clockReaders may read the wall clock, each for its reason. Every package
// is under exactly one entry of clockFree or clockReaders, so a new package
// needs a decision.
var clockReaders = map[string]string{
	"internal/obs":         "the one clock package: obs.Now, obs.Since, spans and timers",
	"internal/experiments": "offline harness that measures wall time",
	"internal/dataset":     "offline data generation",
	"internal/cliutil":     "flag helpers of the commands, on no data path",
	"cmd":                  "entry points report real timestamps and durations",
	"examples":             "programs that print what they did",
}

// under reports whether the module-relative directory dir is p or below it
// ("" is the module root alone).
func under(dir, p string) bool {
	return dir == p || p != "" && strings.HasPrefix(dir, p+"/")
}

func underAny(dir string, ps []string) bool {
	for _, p := range ps {
		if under(dir, p) {
			return true
		}
	}
	return false
}

// violations returns one message per rule break in f, a file of the
// module-relative directory dir.
func violations(fset *token.FileSet, dir string, f *ast.File) []string {
	var out []string
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, fset.Position(pos).String()+": "+fmt.Sprintf(format, args...))
	}
	timeName := "" // the file's name for package time, if it imports it
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		switch {
		case (p == "math/rand" || p == "math/rand/v2") && !under(dir, randDir):
			report(imp.Pos(), "imports %s outside %s: draw from a seeded stats.RNG", p, randDir)
		case p == "time" && underAny(dir, clockFree):
			timeName = "time"
			if imp.Name != nil {
				timeName = imp.Name.Name
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if !underAny(dir, goroutineDirs) {
				report(n.Pos(), "go statement outside %s: fan out through exec.Pool", strings.Join(goroutineDirs, ", "))
			}
		case *ast.SelectorExpr:
			id, ok := n.X.(*ast.Ident)
			if ok && timeName != "" && id.Name == timeName &&
				(n.Sel.Name == "Now" || n.Sel.Name == "Since" || n.Sel.Name == "Until") {
				report(n.Pos(), "wall clock read (time.%s) in a data-path package: time it with internal/obs", n.Sel.Name)
			}
		}
		return true
	})
	return out
}

// parseModule parses every non-test Go file of the module, skipping
// testdata and hidden directories, keyed by module-relative directory.
func parseModule(t *testing.T) (*token.FileSet, map[string][]*ast.File) {
	fset := token.NewFileSet()
	pkgs := make(map[string][]*ast.File)
	fsys := os.DirFS(".")
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := path.Dir(p)
		if dir == "." {
			dir = ""
		}
		pkgs[dir] = append(pkgs[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, pkgs
}

func TestInvariants(t *testing.T) {
	fset, pkgs := parseModule(t)
	named := append(append([]string{randDir}, clockFree...), goroutineDirs...)
	for _, p := range named {
		found := false
		for dir := range pkgs {
			found = found || under(dir, p)
		}
		if !found {
			t.Errorf("no Go file parsed under %q: the rules would check nothing there", p)
		}
	}
	for dir, files := range pkgs {
		homes := 0
		for _, p := range clockFree {
			if under(dir, p) {
				homes++
			}
		}
		for p := range clockReaders {
			if under(dir, p) {
				homes++
			}
		}
		if homes != 1 {
			t.Errorf("package %q is under %d entries of clockFree and clockReaders, want 1", dir, homes)
		}
		for _, f := range files {
			for _, v := range violations(fset, dir, f) {
				t.Error(v)
			}
		}
	}
}

// TestInvariantsCatchSeeds shows each rule can fail: a seeded source breaks
// exactly the rule named, and the same source is clean where it is allowed.
func TestInvariantsCatchSeeds(t *testing.T) {
	const spawn = "package p; func f(ch chan int) { go func() { ch <- 1 }() }"
	const draw = `package p; import "math/rand/v2"; var _ = rand.IntN(3)`
	const now = `package p; import "time"; var _ = time.Now()`
	cases := []struct{ dir, src, want string }{
		{"internal/core", spawn, "go statement"},
		{"internal/exec", spawn, ""},
		{"cmd/predsqld", spawn, ""},
		{"internal/engine", draw, "math/rand/v2"},
		{"internal/stats", draw, ""},
		{"internal/plan", now, "time.Now"},
		{"", `package p; import clock "time"; var _ = clock.Since(clock.Time{})`, "time.Since"},
		{"internal/plan", `package p; import "time"; var _ = time.Duration(0)`, ""},
		{"internal/obs", now, ""},
	}
	for _, c := range cases {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "seed.go", c.src, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := violations(fset, c.dir, f)
		if c.want == "" && len(got) != 0 || c.want != "" && (len(got) != 1 || !strings.Contains(got[0], c.want)) {
			t.Errorf("%q in %q: violations %q, want one naming %q", c.src, c.dir, got, c.want)
		}
	}
}
