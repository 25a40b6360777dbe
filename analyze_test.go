// Acceptance tests for EXPLAIN ANALYZE through the public facade: the
// annotated plan's count fields are bit-identical at any parallelism on
// the seeded chaos workload (timings stripped — they are display-only),
// the keyword attaches the plan without changing the result set, and plain
// EXPLAIN still plans without executing.
package predeval_test

import (
	"context"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// timeRE strips the display-only wall-time annotation so the remaining
// text is the deterministic count contract.
var timeRE = regexp.MustCompile(`\s*time=[0-9.]+ms`)

func stripTimes(plan []string) []string {
	out := make([]string, len(plan))
	for i, line := range plan {
		out[i] = timeRE.ReplaceAllString(line, "")
	}
	return out
}

func TestExplainAnalyzeChaosDeterministicAcrossParallelism(t *testing.T) {
	const n = 600
	run := func(parallelism int) ([]string, snapshot) {
		db := chaosDB(t, n, parallelism, acceptanceChaos, "degrade")
		rows, err := db.QueryContext(context.Background(),
			"EXPLAIN ANALYZE SELECT id FROM loans WHERE good_credit(id) = 1")
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		if len(rows.Plan()) == 0 {
			t.Fatalf("parallelism %d: EXPLAIN ANALYZE returned no plan", parallelism)
		}
		return stripTimes(rows.Plan()), snap(rows)
	}
	plan1, rows1 := run(1)
	plan8, rows8 := run(8)
	if !reflect.DeepEqual(rows1, rows8) {
		t.Fatalf("EXPLAIN ANALYZE result sets differ across parallelism:\np=1 %+v\np=8 %+v", rows1, rows8)
	}
	if !reflect.DeepEqual(plan1, plan8) {
		t.Fatalf("EXPLAIN ANALYZE counts differ across parallelism:\n--- p=1 ---\n%s\n--- p=8 ---\n%s",
			strings.Join(plan1, "\n"), strings.Join(plan8, "\n"))
	}
	text := strings.Join(plan1, "\n")
	for _, want := range []string{"(actual ", "rows=", "calls=", "retries=", "failed="} {
		if !strings.Contains(text, want) {
			t.Errorf("annotated plan missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "time=") {
		t.Error("stripTimes left a wall-time annotation behind")
	}
}

// TestExplainAnalyzeStatementReturnsPlanAsRows pins the EXPLAIN ANALYZE
// statement's answer. The annotated plan used to be its result set; it is
// now metadata of the run, on Plan, and the rows are the statement's own:
// the projection's columns, executed (UDFs evaluated), never plan lines.
func TestExplainAnalyzeStatementReturnsPlanAsRows(t *testing.T) {
	db := chaosDB(t, 200, 4, acceptanceChaos, "degrade")
	rows, err := db.QueryContext(context.Background(),
		"EXPLAIN ANALYZE SELECT id FROM loans WHERE good_credit(id) = 1")
	if err != nil {
		t.Fatal(err)
	}
	if cols := rows.Columns(); len(cols) != 1 || cols[0] != "id" {
		t.Fatalf("EXPLAIN ANALYZE columns %v, want the projection [id]", cols)
	}
	if rows.Len() == 0 || len(rows.Plan()) == 0 {
		t.Fatalf("EXPLAIN ANALYZE returned %d rows and %d plan lines, want both", rows.Len(), len(rows.Plan()))
	}
	if rows.Stats().Evaluations == 0 {
		t.Error("EXPLAIN ANALYZE must execute the query: Evaluations = 0")
	}
	if !strings.Contains(strings.Join(rows.Plan(), "\n"), "(actual ") {
		t.Errorf("plan not annotated:\n%s", strings.Join(rows.Plan(), "\n"))
	}
}

// TestQueryContextAnalyzeKeepsResultSet: the plan is metadata of the run.
// On a fresh DB at the same seed, EXPLAIN ANALYZE through QueryContext
// returns exactly the bare statement's columns, rows, row ids and Stats,
// with the annotated tree on Plan; the bare statement carries no plan.
func TestQueryContextAnalyzeKeepsResultSet(t *testing.T) {
	const n = 300
	plain := chaosDB(t, n, 4, acceptanceChaos, "degrade")
	analyzed := chaosDB(t, n, 4, acceptanceChaos, "degrade")
	sql := "SELECT id FROM loans WHERE good_credit(id) = 1"
	want, err := plain.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	got, err := analyzed.QueryContext(context.Background(), "EXPLAIN ANALYZE "+sql)
	if err != nil {
		t.Fatal(err)
	}
	if want.Plan() != nil {
		t.Error("plain query unexpectedly carries a plan")
	}
	if len(got.Plan()) == 0 {
		t.Fatal("EXPLAIN ANALYZE did not attach a plan")
	}
	if got.Len() == 0 || got.Stats().Evaluations == 0 {
		t.Fatalf("EXPLAIN ANALYZE must execute and return its rows: %d rows, %d evaluations",
			got.Len(), got.Stats().Evaluations)
	}
	if !reflect.DeepEqual(snap(want), snap(got)) {
		t.Errorf("EXPLAIN ANALYZE changed the result set:\nplain %+v\nanalyzed %+v", snap(want), snap(got))
	}
	if !strings.Contains(strings.Join(got.Plan(), "\n"), "(actual ") {
		t.Errorf("attached plan not annotated:\n%s", strings.Join(got.Plan(), "\n"))
	}
}

func TestPlainExplainStillPlansOnly(t *testing.T) {
	db := chaosDB(t, 200, 4, acceptanceChaos, "degrade")
	rows, err := db.QueryContext(context.Background(),
		"EXPLAIN SELECT id FROM loans WHERE good_credit(id) = 1")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Stats().Evaluations != 0 || rows.Len() != 0 {
		t.Errorf("plain EXPLAIN executed the query: %d evaluations, %d rows", rows.Stats().Evaluations, rows.Len())
	}
	if cols := rows.Columns(); len(cols) != 1 || cols[0] != "id" {
		t.Errorf("plain EXPLAIN columns %v, want the projection [id]", cols)
	}
	if len(rows.Plan()) == 0 {
		t.Error("plain EXPLAIN carries no plan")
	}
	if strings.Contains(strings.Join(rows.Plan(), "\n"), "(actual ") {
		t.Error("plain EXPLAIN carries actuals")
	}
}
