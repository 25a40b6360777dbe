// Tests for the parallel UDF-evaluation subsystem as seen through the
// public facade: bit-for-bit determinism across parallelism levels, safety
// of concurrent queries against one shared DB (exercised under -race in
// CI), and the cross-query UDF outcome cache.
package predeval_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	predeval "repro"
	"repro/internal/stats"
)

// loansCSV synthesizes a loans table whose hidden label correlates with
// grade (A: 90%, B: 50%, C: 10%), the repo's standard fixture shape.
func loansCSV(n int, seed uint64) (string, map[int64]bool) {
	rng := stats.NewRNG(seed)
	truth := make(map[int64]bool, n)
	grades := []string{"A", "B", "C"}
	sels := []float64{0.9, 0.5, 0.1}
	var sb strings.Builder
	sb.WriteString("id,grade,income\n")
	for i := 0; i < n; i++ {
		g := i % 3
		label := rng.Bernoulli(sels[g])
		truth[int64(i)] = label
		fmt.Fprintf(&sb, "%d,%s,%.2f\n", i, grades[g], 30000+rng.Float64()*90000)
	}
	return sb.String(), truth
}

// openLoansDB builds a DB over the fixture with two registered UDFs whose
// bodies are pure map reads (safe for concurrent invocation).
func openLoansDB(t testing.TB, n int, seed uint64) *predeval.DB {
	t.Helper()
	csv, truth := loansCSV(n, 1)
	db := predeval.Open(seed)
	if err := db.LoadCSV("loans", strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterUDF("good_credit", func(v any) bool {
		return truth[v.(int64)]
	}, 3); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterUDF("is_even", func(v any) bool {
		return v.(int64)%2 == 0
	}, 3); err != nil {
		t.Fatal(err)
	}
	return db
}

// snapshot flattens a result for deep comparison.
type snapshot struct {
	Cols  []string
	Cells [][]string
	IDs   []int
	Stats predeval.Stats
}

func snap(r *predeval.Rows) snapshot {
	s := snapshot{Cols: r.Columns(), IDs: r.RowIDs(), Stats: r.Stats()}
	for i := 0; i < r.Len(); i++ {
		s.Cells = append(s.Cells, r.Row(i))
	}
	return s
}

// TestDeterministicAcrossParallelism is the subsystem's core contract:
// same seed ⇒ identical rows AND identical cost accounting whether the
// UDF fan-out uses 1 worker or 8, for every query class.
func TestDeterministicAcrossParallelism(t *testing.T) {
	queries := map[string]string{
		"exact": `SELECT id, grade FROM loans WHERE good_credit(id) = 1`,
		"approx": `SELECT id FROM loans WHERE good_credit(id) = 1
			WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.8 GROUP ON grade`,
		"discover": `SELECT id FROM loans WHERE good_credit(id) = 1
			WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.8`,
		"budget": `SELECT id FROM loans WHERE good_credit(id) = 1
			WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.8 GROUP ON grade BUDGET 4000`,
		"twopred": `SELECT id FROM loans WHERE good_credit(id) = 1 AND is_even(id) = 1
			WITH PRECISION 0.75 RECALL 0.75 PROBABILITY 0.8 GROUP ON grade`,
		"filtered": `SELECT id FROM loans WHERE good_credit(id) = 1 AND grade = 'A'`,
	}
	for name, sql := range queries {
		t.Run(name, func(t *testing.T) {
			run := func(parallelism int) snapshot {
				db := openLoansDB(t, 3000, 42)
				db.SetParallelism(parallelism)
				rows, err := db.QueryContext(context.Background(), sql)
				if err != nil {
					t.Fatal(err)
				}
				return snap(rows)
			}
			seq := run(1)
			for _, p := range []int{2, 8} {
				if par := run(p); !reflect.DeepEqual(seq, par) {
					t.Fatalf("parallelism %d diverged from sequential:\nseq stats %+v (%d rows)\npar stats %+v (%d rows)",
						p, seq.Stats, len(seq.Cells), par.Stats, len(par.Cells))
				}
			}
			if seq.Stats.Evaluations == 0 {
				t.Fatal("query did no UDF work; test is vacuous")
			}
		})
	}
}

// TestConcurrentQueriesSharedDB hammers one DB from many goroutines with a
// mix of exact and approximate queries. Run under -race this exercises the
// meter single-flight, the shared eval cache, the fault collector, and the
// engine's RNG splitting.
func TestConcurrentQueriesSharedDB(t *testing.T) {
	db := openLoansDB(t, 1500, 7)
	db.SetParallelism(4)
	want, err := db.QueryContext(context.Background(), `SELECT id FROM loans WHERE good_credit(id) = 1`)
	if err != nil {
		t.Fatal(err)
	}
	sqls := []string{
		`SELECT id FROM loans WHERE good_credit(id) = 1`,
		`SELECT id, grade FROM loans WHERE good_credit(id) = 1 AND grade = 'B'`,
		`SELECT id FROM loans WHERE good_credit(id) = 1
			WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.8 GROUP ON grade`,
		`SELECT id FROM loans WHERE good_credit(id) = 1 AND is_even(id) = 1
			WITH PRECISION 0.75 RECALL 0.75 PROBABILITY 0.8 GROUP ON grade`,
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(sqls))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k, sql := range sqls {
				rows, err := db.QueryContext(context.Background(), sql)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d query %d: %w", g, k, err)
					return
				}
				// The exact scan has one right answer regardless of what
				// ran concurrently.
				if k == 0 && !reflect.DeepEqual(rows.RowIDs(), want.RowIDs()) {
					errs <- fmt.Errorf("goroutine %d: exact scan returned %d rows, want %d",
						g, rows.Len(), want.Len())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestUDFCacheNeverRepays verifies the engine-level memoization: a second
// query touching the same (table, UDF, column) pays zero evaluations.
func TestUDFCacheNeverRepays(t *testing.T) {
	db := openLoansDB(t, 600, 3)
	first, err := db.QueryContext(context.Background(), `SELECT id FROM loans WHERE good_credit(id) = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats().Evaluations != 600 {
		t.Fatalf("first scan evaluated %d, want 600", first.Stats().Evaluations)
	}
	second, err := db.QueryContext(context.Background(), `SELECT id FROM loans WHERE good_credit(id) = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats().Evaluations != 0 {
		t.Fatalf("second scan re-paid %d evaluations", second.Stats().Evaluations)
	}
	if !reflect.DeepEqual(first.RowIDs(), second.RowIDs()) {
		t.Fatal("cached scan returned different rows")
	}
	if got, want := second.Stats().Cost, float64(600); got != want {
		t.Fatalf("cached scan cost %v, want retrieval-only %v", got, want)
	}
	// An approximate query over the same predicate also rides the cache:
	// every row it samples or verifies was already evaluated.
	approx, err := db.QueryContext(context.Background(), `SELECT id FROM loans WHERE good_credit(id) = 1
		WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.8 GROUP ON grade`)
	if err != nil {
		t.Fatal(err)
	}
	if approx.Stats().Evaluations != 0 {
		t.Fatalf("approx after exact re-paid %d evaluations", approx.Stats().Evaluations)
	}

	// Disabling the cache restores pay-per-query.
	db.SetUDFCache(false)
	third, err := db.QueryContext(context.Background(), `SELECT id FROM loans WHERE good_credit(id) = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if third.Stats().Evaluations != 600 {
		t.Fatalf("cache-off scan evaluated %d, want 600", third.Stats().Evaluations)
	}
}
