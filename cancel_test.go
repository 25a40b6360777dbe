package predeval

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// blockingDB builds a loans DB whose UDF can be switched into a blocking
// mode: while blocking is set, every call parks on the release channel
// after signaling started. Calls are counted either way.
func blockingDB(t *testing.T, n, parallelism int) (db *DB, calls *atomic.Int64, blocking *atomic.Bool, started chan struct{}, release chan struct{}) {
	t.Helper()
	csv, truth := loanCSV(n, 9)
	db = Open(1)
	db.SetParallelism(parallelism)
	if err := db.LoadCSV("loans", strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	calls = &atomic.Int64{}
	blocking = &atomic.Bool{}
	started = make(chan struct{}, n)
	release = make(chan struct{})
	if err := db.RegisterUDF("good_credit", func(v any) bool {
		calls.Add(1)
		if blocking.Load() {
			started <- struct{}{}
			<-release
		}
		return truth[v.(int64)]
	}, 3); err != nil {
		t.Fatal(err)
	}
	return db, calls, blocking, started, release
}

// TestQueryContextCancelBlockingUDF is the acceptance-criteria test: a
// blocking UDF must not let a cancelled exact scan finish — the query
// returns ctx.Err() after at most one in-flight call per worker.
func TestQueryContextCancelBlockingUDF(t *testing.T) {
	const n, workers = 600, 4
	db, calls, blocking, started, release := blockingDB(t, n, workers)
	blocking.Store(true)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := db.QueryContext(ctx, "SELECT * FROM loans WHERE good_credit(id) = 1")
		errc <- err
	}()
	<-started // at least one UDF call is in flight
	cancel()
	close(release) // let the in-flight calls drain

	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled query did not return")
	}
	if got := calls.Load(); got > workers {
		t.Fatalf("%d UDF calls after cancel; at most one in-flight per worker (%d) allowed", got, workers)
	}

	// The engine stays reusable: the same query, un-blocked, now answers
	// exactly and correctly.
	blocking.Store(false)
	rows, err := db.QueryContext(context.Background(), "SELECT * FROM loans WHERE good_credit(id) = 1")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Stats().Exact || rows.Len() == 0 {
		t.Fatalf("post-cancel rerun: exact=%v rows=%d", rows.Stats().Exact, rows.Len())
	}
}

// runCancelledApprox executes the approximate query cancelling at the
// target call count, asserts ctx.Err() came back without a full scan, then
// reruns the query to completion on the same DB and sanity-checks it.
func runCancelledApprox(t *testing.T, sql string, n int, target int64) {
	t.Helper()
	csv, truth := loanCSV(n, 9)
	db := Open(1)
	db.SetParallelism(1)
	if err := db.LoadCSV("loans", strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	if err := db.RegisterUDF("good_credit", func(v any) bool {
		if calls.Add(1) == target {
			cancel()
		}
		return truth[v.(int64)]
	}, 3); err != nil {
		t.Fatal(err)
	}

	_, err := db.QueryContext(ctx, sql)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	atCancel := calls.Load()
	if atCancel >= int64(n) {
		t.Fatalf("cancel at call %d did not prevent a full scan of %d rows", atCancel, n)
	}
	// At parallelism 1 the worker stops before the next item: the counter
	// must sit exactly at the triggering call.
	if atCancel != target {
		t.Fatalf("ran %d calls, cancel landed at %d", atCancel, target)
	}

	// Same DB, same query, live context: completes and answers correctly.
	rows, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() == 0 {
		t.Fatal("post-cancel rerun returned no rows")
	}
	correct, total := 0, 0
	for _, v := range truth {
		if v {
			total++
		}
	}
	for _, id := range rows.RowIDs() {
		if truth[int64(id)] {
			correct++
		}
	}
	if prec := float64(correct) / float64(rows.Len()); prec < 0.6 {
		t.Fatalf("post-cancel rerun precision %v", prec)
	}
	if rec := float64(correct) / float64(total); rec < 0.6 {
		t.Fatalf("post-cancel rerun recall %v", rec)
	}
}

func TestQueryContextCancelDuringLabeling(t *testing.T) {
	// No GROUP ON: the first UDF calls label ~1% of rows to discover the
	// correlated column; call 3 is mid-labeling (30 calls at n=3000).
	runCancelledApprox(t,
		`SELECT * FROM loans WHERE good_credit(id) = 1
		 WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.8`, 3000, 3)
}

func TestQueryContextCancelDuringSampling(t *testing.T) {
	// GROUP ON skips labeling: the first UDF calls are the sampler's
	// two-third-power top-up, so call 3 is mid-sampling.
	runCancelledApprox(t,
		`SELECT * FROM loans WHERE good_credit(id) = 1
		 WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.8 GROUP ON grade`, 3000, 3)
}

func TestQueryContextCancelDuringExecution(t *testing.T) {
	// Learn the sampling size from an uncancelled run with the same seed,
	// then cancel a few calls past it — inside the execution phase.
	csv, truth := loanCSV(3000, 9)
	ref := Open(1)
	ref.SetParallelism(1)
	if err := ref.LoadCSV("loans", strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	if err := ref.RegisterUDF("good_credit", func(v any) bool {
		return truth[v.(int64)]
	}, 3); err != nil {
		t.Fatal(err)
	}
	sql := `SELECT * FROM loans WHERE good_credit(id) = 1
		WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.8 GROUP ON grade`
	rows, err := ref.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	st := rows.Stats()
	if st.Sampled <= 0 || st.Evaluations <= st.Sampled {
		t.Fatalf("reference run stats unusable: %+v", st)
	}
	runCancelledApprox(t, sql, 3000, int64(st.Sampled)+3)
}

func TestQueryContextDeadline(t *testing.T) {
	// A UDF far slower than the deadline: the scan cannot finish in time
	// and the query surfaces context.DeadlineExceeded.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	csv, _ := loanCSV(600, 9)
	db := Open(1)
	if err := db.LoadCSV("loans", strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterUDF("good_credit", func(v any) bool {
		time.Sleep(2 * time.Millisecond)
		return true
	}, 3); err != nil {
		t.Fatal(err)
	}
	_, err := db.QueryContext(ctx, "SELECT * FROM loans WHERE good_credit(id) = 1")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want context.DeadlineExceeded", err)
	}
}

func TestQueryContextCancelSelectJoin(t *testing.T) {
	csv, truth := loanCSV(900, 9)
	db := Open(1)
	db.SetParallelism(1)
	if err := db.LoadCSV("loans", strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	// Join table referencing a spread of ids so subgroups form.
	var sb strings.Builder
	sb.WriteString("loan_id\n")
	for i := 0; i < 900; i++ {
		fmt.Fprintf(&sb, "%d\n", (i*7)%900)
	}
	if err := db.LoadCSV("orders", strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	if err := db.RegisterUDF("good_credit", func(v any) bool {
		if calls.Add(1) == 2 {
			cancel()
		}
		return truth[v.(int64)]
	}, 3); err != nil {
		t.Fatal(err)
	}
	_, err := db.QueryContext(ctx, `SELECT * FROM loans JOIN orders ON loans.id = orders.loan_id
		WHERE good_credit(id) = 1 WITH PRECISION 0.7 RECALL 0.7 PROBABILITY 0.8 GROUP ON grade`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if calls.Load() >= 900 {
		t.Fatal("join query scanned everything despite cancel")
	}
}
