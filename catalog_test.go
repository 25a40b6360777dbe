package predeval

import (
	"context"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
)

// openCatalogDB is openLoanDB with a counting UDF body and an attached
// catalog in dir, simulating one process life over durable state.
func openCatalogDB(t *testing.T, n int, dir string) (*DB, *atomic.Int64) {
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
	if err := db.OpenCatalog(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.CloseCatalog() })
	return db, calls
}

const (
	exactSQL  = "SELECT id, grade FROM loans WHERE good_credit(id) = 1"
	approxSQL = "SELECT id FROM loans WHERE good_credit(id) = 1 WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.8"
)

// TestCatalogRestartRoundTrip is the acceptance test for the durable
// catalog: load tables, run a workload, flush, reopen the catalog in a
// fresh DB, re-run the same workload — both queries return identical rows
// with Stats.Evaluations == 0, and the approximate query's Sampled strictly
// shrinks (the labeling pass is skipped; its own sample is still drawn).
func TestCatalogRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()

	db1, calls1 := openCatalogDB(t, 900, dir)
	exact1, err := db1.QueryContext(context.Background(), exactSQL)
	if err != nil {
		t.Fatal(err)
	}
	approx1, err := db1.QueryContext(context.Background(), approxSQL)
	if err != nil {
		t.Fatal(err)
	}
	if calls1.Load() != 900 {
		t.Fatalf("cold run invoked the UDF %d times, want 900", calls1.Load())
	}
	if approx1.Stats().Sampled == 0 {
		t.Fatal("cold approximate query sampled nothing")
	}
	if err := db1.CloseCatalog(); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh DB over the same data, same catalog directory.
	db2, calls2 := openCatalogDB(t, 900, dir)
	exact2, err := db2.QueryContext(context.Background(), exactSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exact1.RowIDs(), exact2.RowIDs()) {
		t.Fatalf("restart changed the exact answer: %d vs %d rows", exact1.Len(), exact2.Len())
	}
	if st := exact2.Stats(); st.Evaluations != 0 {
		t.Fatalf("fully cached exact query paid %d evaluations, want 0", st.Evaluations)
	}
	approx2, err := db2.QueryContext(context.Background(), approxSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(approx1.RowIDs(), approx2.RowIDs()) {
		t.Fatalf("restart changed the approximate answer: %d vs %d rows", approx1.Len(), approx2.Len())
	}
	st := approx2.Stats()
	if st.Evaluations != 0 {
		t.Fatalf("warm approximate query paid %d evaluations, want 0", st.Evaluations)
	}
	if st.Sampled >= approx1.Stats().Sampled {
		t.Fatalf("warm Sampled %d not strictly below cold %d", st.Sampled, approx1.Stats().Sampled)
	}
	if calls2.Load() != 0 {
		t.Fatalf("restart invoked the UDF body %d times, want 0", calls2.Load())
	}
	cc := db2.CacheCounters()
	if cc.Hits == 0 || cc.ColumnMemoHits != 1 || cc.SeededRows != 0 {
		t.Fatalf("warm-start counters off: %+v", cc)
	}
}

// TestCatalogCorruptTailRecovered: a crash-torn log tail is detected on
// open and recovered past — the surviving prefix still warm-starts the
// workload, and no wrong verdict is ever served.
func TestCatalogCorruptTailRecovered(t *testing.T) {
	dir := t.TempDir()
	db1, _ := openCatalogDB(t, 300, dir)
	// Two flushes produce two log records: the approximate query's paid
	// verdicts first, then the exact scan's remainder. Tearing the tail
	// must lose only the second.
	if _, err := db1.QueryContext(context.Background(), approxSQL); err != nil {
		t.Fatal(err)
	}
	if err := db1.FlushCatalog(); err != nil {
		t.Fatal(err)
	}
	exact1, err := db1.QueryContext(context.Background(), exactSQL)
	if err != nil {
		t.Fatal(err)
	}
	if err := db1.FlushCatalog(); err != nil {
		t.Fatal(err)
	}
	// Tear the log mid-record, as a crash during append would.
	logPath := filepath.Join(dir, "catalog.log")
	info, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	db2, calls2 := openCatalogDB(t, 300, dir)
	rec := db2.Catalog().Recovery()
	if !rec.Truncated || rec.Note == "" {
		t.Fatalf("torn tail not reported: %+v", rec)
	}
	exact2, err := db2.QueryContext(context.Background(), exactSQL)
	if err != nil {
		t.Fatal(err)
	}
	// Verdicts lost with the tail are re-paid, never guessed: the answer
	// matches the cold run exactly and the body ran only for lost rows.
	if !reflect.DeepEqual(exact1.RowIDs(), exact2.RowIDs()) {
		t.Fatal("recovery changed the exact answer")
	}
	if n := calls2.Load(); n == 0 || n >= 300 {
		t.Fatalf("recovered run re-paid %d invocations, want a small non-zero count", n)
	}
}

// TestCatalogStatsCacheCounters: the satellite observability contract —
// per-query Stats now expose cross-query cache hits/misses through the
// facade, with or without a catalog.
func TestCatalogStatsCacheCounters(t *testing.T) {
	db, _ := openLoanDB(t, 300)
	r1, err := db.QueryContext(context.Background(), exactSQL)
	if err != nil {
		t.Fatal(err)
	}
	if st := r1.Stats(); st.CacheHits != 0 || st.CacheMisses != 300 {
		t.Fatalf("cold stats hits=%d misses=%d, want 0/300", st.CacheHits, st.CacheMisses)
	}
	r2, err := db.QueryContext(context.Background(), exactSQL)
	if err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.CacheHits != 300 || st.CacheMisses != 0 {
		t.Fatalf("repeat stats hits=%d misses=%d, want 300/0", st.CacheHits, st.CacheMisses)
	}
	if cc := db.CacheCounters(); cc.Hits != 300 || cc.Misses != 300 {
		t.Fatalf("lifetime counters %+v, want 300 hits / 300 misses", cc)
	}
}

// TestCatalogRowsOutsideTheTable: a catalog handed verdicts for rows the
// table does not have, a negative id and one past its end, opens under a DB
// and serves the exact statement from its in-table verdicts. A negative id
// used to reach the engine's eval cache and panic the first query.
func TestCatalogRowsOutsideTheTable(t *testing.T) {
	const n = 300
	dir := t.TempDir()
	_, truth := loanCSV(n, 9)
	c, err := catalog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := catalog.OutcomeKey{Table: "loans", UDF: "good_credit", Column: "id"}
	c.AddOutcomes(key, maps.All(map[int]bool{-3: true, 0: truth[0], n + 7: true}))
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	db, calls := openCatalogDB(t, n, dir)
	rows, err := db.QueryContext(context.Background(), exactSQL)
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for i := 0; i < n; i++ {
		if truth[int64(i)] {
			want = append(want, i)
		}
	}
	if got := rows.RowIDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("exact answer has %d rows, want %d", len(got), len(want))
	}
	if got := calls.Load(); got != n-1 {
		t.Fatalf("the UDF ran %d times, want %d: only row 0's verdict is in the table", got, n-1)
	}
	if st := db.Catalog().Stats(); st.OutcomeRows != 2 {
		t.Fatalf("catalog holds %d verdicts, want 2: the negative row is dropped, the one past the table kept", st.OutcomeRows)
	}
}
