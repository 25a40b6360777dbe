package main

// Label loading and the typed-id predicate are exercised in
// internal/labels; the repeatable -table flag in internal/cliutil. This
// file keeps a smoke check that the pieces wire together for this command.

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/labels"
)

func TestLoadLabelsWiring(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.csv")
	if err := os.WriteFile(path, []byte("id,label\n0,1\n1,0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := labels.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pred := labels.Predicate(m)
	if !pred(int64(0)) || pred(int64(1)) {
		t.Fatalf("labels %v mis-predicated", m)
	}
}

// TestAnalyzeWiring covers what an EXPLAIN ANALYZE statement prints: the
// query's own rows, then the annotated plan.
func TestAnalyzeWiring(t *testing.T) {
	db := predeval.Open(1)
	if err := db.LoadCSV("t", strings.NewReader("id\n0\n1\n2\n")); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterUDF("f", func(v any) bool { return v.(int64) > 0 }, 0); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryContext(context.Background(), "EXPLAIN ANALYZE SELECT * FROM t WHERE f(id) = 1")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 {
		t.Fatalf("rows = %d, want 2", rows.Len())
	}
	plan := strings.Join(rows.Plan(), "\n")
	if len(rows.Plan()) == 0 || !strings.Contains(plan, "(actual ") {
		t.Fatalf("plan not annotated:\n%s", plan)
	}
}
