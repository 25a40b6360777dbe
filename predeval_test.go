package predeval

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/stats"
)

// loanCSV builds a CSV with a grade column correlated to the hidden label.
func loanCSV(n int, seed uint64) (string, map[int64]bool) {
	rng := stats.NewRNG(seed)
	var sb strings.Builder
	sb.WriteString("id,grade,income\n")
	truth := make(map[int64]bool, n)
	sels := []float64{0.9, 0.5, 0.1}
	grades := []string{"A", "B", "C"}
	for i := 0; i < n; i++ {
		g := i % 3
		label := rng.Bernoulli(sels[g])
		truth[int64(i)] = label
		income := 40000.5 + rng.Float64()*50000
		fmt.Fprintf(&sb, "%d,%s,%.2f\n", i, grades[g], income)
	}
	return sb.String(), truth
}

func openLoanDB(t *testing.T, n int) (*DB, map[int64]bool) {
	t.Helper()
	csv, truth := loanCSV(n, 9)
	db := Open(1)
	if err := db.LoadCSV("loans", strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterUDF("good_credit", func(v any) bool {
		return truth[v.(int64)]
	}, 3); err != nil {
		t.Fatal(err)
	}
	return db, truth
}

func TestQueryExact(t *testing.T) {
	db, truth := openLoanDB(t, 600)
	rows, err := db.QueryContext(context.Background(), "SELECT id, grade FROM loans WHERE good_credit(id) = 1")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Stats().Exact {
		t.Fatal("expected exact stats")
	}
	want := 0
	for _, v := range truth {
		if v {
			want++
		}
	}
	if rows.Len() != want {
		t.Fatalf("rows %d want %d", rows.Len(), want)
	}
	if cols := rows.Columns(); len(cols) != 2 || cols[0] != "id" || cols[1] != "grade" {
		t.Fatalf("columns %v", cols)
	}
	if len(rows.Row(0)) != 2 {
		t.Fatalf("row cells %v", rows.Row(0))
	}
}

func TestQueryApproximate(t *testing.T) {
	db, truth := openLoanDB(t, 3000)
	rows, err := db.QueryContext(context.Background(), `SELECT * FROM loans WHERE good_credit(id) = 1
		WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.8`)
	if err != nil {
		t.Fatal(err)
	}
	st := rows.Stats()
	if st.Exact {
		t.Fatal("approximate query reported exact")
	}
	if st.Evaluations >= 3000 {
		t.Fatalf("no savings: %d evaluations", st.Evaluations)
	}
	if st.ChosenColumn != "grade" {
		t.Fatalf("chosen column %q", st.ChosenColumn)
	}
	// Quality check against ground truth.
	total := 0
	for _, v := range truth {
		if v {
			total++
		}
	}
	correct := 0
	for _, id := range rows.RowIDs() {
		if truth[int64(id)] {
			correct++
		}
	}
	prec := float64(correct) / float64(rows.Len())
	recall := float64(correct) / float64(total)
	if prec < 0.7 || recall < 0.7 {
		t.Fatalf("precision %v recall %v", prec, recall)
	}
	if st.Cost <= 0 || st.Retrievals <= 0 {
		t.Fatalf("stats %+v", st)
	}
	// Regression: the engine's Sampled count must survive the trip through
	// the public Stats, so callers can split estimation from execution
	// cost. On this cold cache every sampled tuple was also charged.
	if st.Sampled <= 0 || st.Sampled > st.Evaluations {
		t.Fatalf("Sampled %d not in (0, Evaluations=%d]", st.Sampled, st.Evaluations)
	}
}

func TestQueryBudget(t *testing.T) {
	db, _ := openLoanDB(t, 3000)
	rows, err := db.QueryContext(context.Background(), `SELECT * FROM loans WHERE good_credit(id) = 1
		WITH PRECISION 0.8 PROBABILITY 0.8 GROUP ON grade BUDGET 4000`)
	if err != nil {
		t.Fatal(err)
	}
	st := rows.Stats()
	if st.AchievedRecallBound <= 0 {
		t.Fatalf("achieved recall bound %v", st.AchievedRecallBound)
	}
}

func TestQueryParseError(t *testing.T) {
	db, _ := openLoanDB(t, 90)
	if _, err := db.QueryContext(context.Background(), "SELECT FROM"); err == nil {
		t.Fatal("bad SQL accepted")
	}
	if _, err := db.QueryContext(context.Background(), "SELECT * FROM missing WHERE good_credit(id) = 1"); err == nil {
		t.Fatal("missing table accepted")
	}
	if _, err := db.QueryContext(context.Background(), "SELECT * FROM loans WHERE nope(id) = 1"); err == nil {
		t.Fatal("missing UDF accepted")
	}
}

func TestLoadCSVErrors(t *testing.T) {
	db := Open(1)
	if err := db.LoadCSV("bad", strings.NewReader("")); err == nil {
		t.Fatal("empty CSV accepted")
	}
	if err := db.LoadCSVFile("x", "/no/such/file.csv"); err == nil {
		t.Fatal("missing file accepted")
	}
	csv, _ := loanCSV(10, 1)
	if err := db.LoadCSV("t", strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadCSV("t", strings.NewReader(csv)); err == nil {
		t.Fatal("duplicate table accepted")
	}
}

func TestRegisterUDFErrors(t *testing.T) {
	db := Open(1)
	if err := db.RegisterUDF("f", nil, 1); err == nil {
		t.Fatal("nil UDF accepted")
	}
	if err := db.RegisterUDF("f", func(any) bool { return true }, -1); err == nil {
		t.Fatal("negative cost accepted")
	}
}

func TestQueryJoinSQL(t *testing.T) {
	db, _ := openLoanDB(t, 900)
	var sb strings.Builder
	sb.WriteString("loan_id\n")
	rng := stats.NewRNG(3)
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&sb, "%d\n", rng.IntN(900))
	}
	if err := db.LoadCSV("orders", strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryContext(context.Background(), `SELECT * FROM loans JOIN orders ON loans.id = orders.loan_id
		WHERE good_credit(id) = 1 WITH PRECISION 0.7 RECALL 0.7 PROBABILITY 0.8 GROUP ON grade`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() == 0 {
		t.Fatal("join query returned nothing")
	}
	if rows.Stats().Evaluations >= 900 {
		t.Fatalf("no savings: %d", rows.Stats().Evaluations)
	}
}

// TestQueryJoinBudgetRejected is the regression test for JOIN … BUDGET: no
// plan shape honours a budget under join weights (the join shape used to win
// silently, returning the unbudgeted plan at full cost), so the combination
// is an error on every entry point.
func TestQueryJoinBudgetRejected(t *testing.T) {
	db, _ := openLoanDB(t, 900)
	if err := db.LoadCSV("orders", strings.NewReader("loan_id\n1\n2\n2\n")); err != nil {
		t.Fatal(err)
	}
	const sql = `SELECT * FROM loans JOIN orders ON loans.id = orders.loan_id
		WHERE good_credit(id) = 1 WITH PRECISION 0.7 RECALL 0.7 PROBABILITY 0.8 GROUP ON grade BUDGET 50`
	const want = "BUDGET is not supported with JOIN"
	_, queryErr := db.QueryContext(context.Background(), sql)
	_, explainErr := db.QueryContext(context.Background(), "EXPLAIN "+sql)
	_, analyzeErr := db.QueryContext(context.Background(), "EXPLAIN ANALYZE "+sql)
	_, streamErr := db.QueryStream(context.Background(), sql, StreamOptions{},
		func([]int, [][]string) error { return nil })
	for name, err := range map[string]error{
		"Query": queryErr, "Explain": explainErr, "EXPLAIN ANALYZE": analyzeErr, "QueryStream": streamErr,
	} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, want)
		}
	}
}

func TestEngineAccessor(t *testing.T) {
	db := Open(1)
	if db.Engine() == nil {
		t.Fatal("nil engine")
	}
}
