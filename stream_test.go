package predeval

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// countingLoanDB is openLoanDB with a call counter on the UDF, so tests
// can observe how much evaluation a stream actually paid for.
func countingLoanDB(t *testing.T, n int) (*DB, *atomic.Int64) {
	t.Helper()
	csv, truth := loanCSV(n, 9)
	db := Open(1)
	if err := db.LoadCSV("loans", strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	calls := new(atomic.Int64)
	if err := db.RegisterUDF("good_credit", func(v any) bool {
		calls.Add(1)
		return truth[v.(int64)]
	}, 3); err != nil {
		t.Fatal(err)
	}
	return db, calls
}

// streamShapeDB is openLoanDB plus what the conjunction and join shapes
// need: two more UDFs and an orders table joining on loan id.
func streamShapeDB(t *testing.T, batchSize int) *DB {
	t.Helper()
	db, _ := openLoanDB(t, 900)
	db.SetBatchSize(batchSize)
	for name, fn := range map[string]func(int64) bool{
		"is_even":  func(id int64) bool { return id%2 == 0 },
		"not_five": func(id int64) bool { return id%5 != 0 },
	} {
		if err := db.RegisterUDF(name, func(v any) bool { return fn(v.(int64)) }, 3); err != nil {
			t.Fatal(err)
		}
	}
	var orders strings.Builder
	orders.WriteString("loan_id\n")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&orders, "%d\n", (i*7)%600)
	}
	if err := db.LoadCSV("orders", strings.NewReader(orders.String())); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestQueryStreamMatchesQuery pins that a stream delivers exactly the
// materialized result — same row ids, same rendered cells, same columns,
// same stats — for every plan shape at every batch size. (The cells agree
// by construction, both paths render through Engine.Renderer; the ids and
// Stats are the executor's sink and sink-less paths agreeing.)
func TestQueryStreamMatchesQuery(t *testing.T) {
	const with = " WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.8"
	shapes := []struct{ name, sql string }{
		{"exact", "SELECT id, grade FROM loans WHERE good_credit(id) = 1"},
		{"approx", "SELECT * FROM loans WHERE good_credit(id) = 1" + with + " GROUP ON grade"},
		{"discover", "SELECT id FROM loans WHERE good_credit(id) = 1" + with},
		{"budget", "SELECT id FROM loans WHERE good_credit(id) = 1" + with + " GROUP ON grade BUDGET 1500"},
		{"filtered", "SELECT income, id FROM loans WHERE good_credit(id) = 1 AND grade = 'A'"},
		{"exact3", "SELECT id FROM loans WHERE good_credit(id) = 1 AND is_even(id) = 1 AND not_five(id) = 1"},
		{"twopred", "SELECT id FROM loans WHERE good_credit(id) = 1 AND is_even(id) = 1" + with + " GROUP ON grade"},
		{"nary", "SELECT id FROM loans WHERE good_credit(id) = 1 AND is_even(id) = 1 AND not_five(id) = 1" + with + " GROUP ON grade"},
		{"join", "SELECT id, grade FROM loans JOIN orders ON loans.id = orders.loan_id WHERE good_credit(id) = 1" + with + " GROUP ON grade"},
	}
	for _, shape := range shapes {
		for _, batchSize := range []int{1, 64, 4096} {
			t.Run(fmt.Sprintf("%s/batch%d", shape.name, batchSize), func(t *testing.T) {
				want, err := streamShapeDB(t, batchSize).QueryContext(context.Background(), shape.sql)
				if err != nil {
					t.Fatal(err)
				}
				var ids []int
				var cells [][]string
				res, err := streamShapeDB(t, batchSize).QueryStream(context.Background(), shape.sql, StreamOptions{},
					func(batchIDs []int, batchCells [][]string) error {
						ids = append(ids, batchIDs...)
						cells = append(cells, batchCells...)
						return nil
					})
				if err != nil {
					t.Fatal(err)
				}
				if want.Len() == 0 || want.Stats().Evaluations == 0 {
					t.Fatal("query returned or evaluated nothing; comparison is vacuous")
				}
				if !reflect.DeepEqual(res.Columns, want.Columns()) {
					t.Fatalf("columns %v, want %v", res.Columns, want.Columns())
				}
				if !reflect.DeepEqual(ids, want.RowIDs()) {
					t.Fatalf("streamed %d ids, materialized %d; orders differ", len(ids), len(want.RowIDs()))
				}
				if len(cells) != want.Len() {
					t.Fatalf("streamed %d rows of cells, materialized %d", len(cells), want.Len())
				}
				for i := range cells {
					if !reflect.DeepEqual(cells[i], want.Row(i)) {
						t.Fatalf("row %d rendered %v, materialized %v", i, cells[i], want.Row(i))
					}
				}
				if res.RowCount != want.Len() || res.Truncated {
					t.Fatalf("RowCount=%d Truncated=%v, want %d/false", res.RowCount, res.Truncated, want.Len())
				}
				if res.Stats != want.Stats() {
					t.Fatalf("stats %+v, want %+v", res.Stats, want.Stats())
				}
			})
		}
	}
}

// TestQueryStreamLimitStopsProduction is the regression test for the
// limit/stream interplay: the limit must stop producing — cancelling
// upstream evaluation — not truncate after a full evaluation. The ids
// delivered must still be the first Limit ids of the full result.
func TestQueryStreamLimitStopsProduction(t *testing.T) {
	const sql = "SELECT id FROM loans WHERE good_credit(id) = 1"
	const n, limit = 3000, 10
	full, _ := openLoanDB(t, n)
	want, err := full.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	db, calls := countingLoanDB(t, n)
	db.SetBatchSize(16)
	db.SetParallelism(1)
	var ids []int
	res, err := db.QueryStream(context.Background(), sql, StreamOptions{Limit: limit},
		func(batchIDs []int, _ [][]string) error {
			ids = append(ids, batchIDs...)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.RowCount != limit || len(ids) != limit {
		t.Fatalf("Truncated=%v RowCount=%d ids=%d, want true/%d/%d",
			res.Truncated, res.RowCount, len(ids), limit, limit)
	}
	if !reflect.DeepEqual(ids, want.RowIDs()[:limit]) {
		t.Fatalf("limited ids %v are not the first %d of the full result", ids, limit)
	}
	// The point of streamed limits: unevaluated rows are never paid for.
	if c := calls.Load(); c >= n/2 {
		t.Fatalf("limit %d still evaluated %d of %d rows; production was not stopped", limit, c, n)
	}
	if res.Stats.Evaluations >= n/2 {
		t.Fatalf("Stats.Evaluations = %d, want far below the %d-row table", res.Stats.Evaluations, n)
	}
}

// TestQueryStreamStopStream pins the ErrStopStream contract: returning it
// from emit ends the stream successfully with the rows delivered so far.
func TestQueryStreamStopStream(t *testing.T) {
	db, _ := countingLoanDB(t, 600)
	db.SetBatchSize(8)
	batches := 0
	res, err := db.QueryStream(context.Background(),
		"SELECT id FROM loans WHERE good_credit(id) = 1", StreamOptions{},
		func(ids []int, _ [][]string) error {
			batches++
			return ErrStopStream
		})
	if err != nil {
		t.Fatal(err)
	}
	if batches != 1 {
		t.Fatalf("emit ran %d times after ErrStopStream, want 1", batches)
	}
	if res.RowCount == 0 || res.RowCount > 8 {
		t.Fatalf("RowCount = %d, want the first batch's rows", res.RowCount)
	}
}

// TestQueryStreamRejectsExplain pins that EXPLAIN statements, planned or
// analyzed, cannot be streamed.
func TestQueryStreamRejectsExplain(t *testing.T) {
	db, _ := openLoanDB(t, 30)
	for _, sql := range []string{
		"EXPLAIN SELECT id FROM loans WHERE good_credit(id) = 1",
		"EXPLAIN ANALYZE SELECT id FROM loans WHERE good_credit(id) = 1",
	} {
		_, err := db.QueryStream(context.Background(), sql, StreamOptions{},
			func([]int, [][]string) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "cannot be streamed") {
			t.Fatalf("%s: err = %v, want a cannot-be-streamed error", sql, err)
		}
	}
}

// TestQueryStreamApproxBlockingShape pins that blocking plan shapes
// (sampling pipelines) still stream their finished result out in batches,
// identical to the materialized path.
func TestQueryStreamApproxBlockingShape(t *testing.T) {
	const sql = "SELECT id FROM loans WHERE good_credit(id) = 1 " +
		"WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.8 GROUP ON grade"
	db, _ := openLoanDB(t, 600)
	want, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	db2, _ := openLoanDB(t, 600)
	db2.SetBatchSize(32)
	var ids []int
	res, err := db2.QueryStream(context.Background(), sql, StreamOptions{},
		func(batchIDs []int, _ [][]string) error {
			ids = append(ids, batchIDs...)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, want.RowIDs()) {
		t.Fatalf("streamed %d ids, materialized %d", len(ids), len(want.RowIDs()))
	}
	if res.Stats != want.Stats() {
		t.Fatalf("stats %+v, want %+v", res.Stats, want.Stats())
	}
}
