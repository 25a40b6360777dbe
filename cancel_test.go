package predeval

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// blockingDB builds a loans DB with good_credit, rich and div3 registered
// behind one call counter: every call past blockAfter signals started and
// parks until release is closed (calls then run straight through).
func blockingDB(t *testing.T, n, parallelism int, blockAfter int64) (db *DB, calls *atomic.Int64, started, release chan struct{}) {
	t.Helper()
	csv, truth := loanCSV(n, 9)
	db = Open(1)
	db.SetParallelism(parallelism)
	if err := db.LoadCSV("loans", strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	calls = &atomic.Int64{}
	started = make(chan struct{}, 3*n) // at most one call per row per UDF
	release = make(chan struct{})
	udfs := []struct {
		name string
		fn   func(v any) bool
	}{
		{"good_credit", func(v any) bool { return truth[v.(int64)] }},
		{"rich", func(v any) bool { return v.(float64) > 70000 }},
		{"div3", func(v any) bool { return v.(int64)%3 == 0 }},
	}
	for _, u := range udfs {
		fn := u.fn
		if err := db.RegisterUDF(u.name, func(v any) bool {
			if calls.Add(1) > blockAfter {
				started <- struct{}{}
				<-release
			}
			return fn(v)
		}, 3); err != nil {
			t.Fatal(err)
		}
	}
	return db, calls, started, release
}

// cancelWhileBlocked runs sql on a blockingDB, cancels once a call has
// parked, lets the parked calls drain, and requires ctx.Err() with no call
// started after the cancel: at most one in-flight call per worker past
// blockAfter.
func cancelWhileBlocked(t *testing.T, db *DB, sql string, calls *atomic.Int64, started, release chan struct{}, blockAfter int64, workers int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := db.QueryContext(ctx, sql)
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
	if got := calls.Load() - blockAfter; got > int64(workers) {
		t.Fatalf("%d UDF calls after cancel; at most one in-flight per worker (%d) allowed", got, workers)
	}
}

// TestQueryContextCancelBlockingUDF is the acceptance-criteria test: a
// blocking UDF must not let a cancelled exact scan finish — the query
// returns ctx.Err() after at most one in-flight call per worker.
func TestQueryContextCancelBlockingUDF(t *testing.T) {
	const n, workers = 600, 4
	db, calls, started, release := blockingDB(t, n, workers, 0)
	cancelWhileBlocked(t, db, "SELECT * FROM loans WHERE good_credit(id) = 1", calls, started, release, 0, workers)

	// The engine stays reusable: the same query, un-blocked, now answers
	// exactly and correctly.
	rows, err := db.QueryContext(context.Background(), "SELECT * FROM loans WHERE good_credit(id) = 1")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Stats().Exact || rows.Len() == 0 {
		t.Fatalf("post-cancel rerun: exact=%v rows=%d", rows.Stats().Exact, rows.Len())
	}
}

// TestQueryContextCancelConjWaves cancels an exact three-predicate
// conjunction, which runs the conj-waves terminal. Seed it catches:
// context.Background() handed to the terminal's wave runner
// (engine/conjunction.go) — the waves then evaluate every row after the
// cancel.
func TestQueryContextCancelConjWaves(t *testing.T) {
	const n, workers = 600, 4
	db, calls, started, release := blockingDB(t, n, workers, 0)
	cancelWhileBlocked(t, db, "SELECT * FROM loans WHERE good_credit(id) = 1 AND rich(income) = 1 AND div3(id) = 1",
		calls, started, release, 0, workers)
}

// TestQueryContextCancelTwoPredicatePlan cancels the §5 two-predicate plan
// inside conj-exec, after its joint sample. Seed it catches:
// context.Background() handed to core.ExecuteTwoPredicatesParallelCtx in
// engine.opConjExec — the plan then executes every action after the cancel.
func TestQueryContextCancelTwoPredicatePlan(t *testing.T) {
	const n, workers = 600, 4
	sql := `SELECT * FROM loans WHERE good_credit(id) = 1 AND rich(income) = 1
		WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.8 GROUP ON grade`
	// The joint sample evaluates both predicates on every sampled row; an
	// unblocked run with the same seed tells how many calls that is.
	ref, _, _, _ := blockingDB(t, n, workers, math.MaxInt64)
	rows, err := ref.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	st := rows.Stats()
	sampleCalls := int64(2 * st.Sampled)
	if st.Sampled == 0 || int64(st.Evaluations)-sampleCalls <= workers {
		t.Fatalf("reference run stats unusable: %+v", st)
	}
	db, calls, started, release := blockingDB(t, n, workers, sampleCalls)
	cancelWhileBlocked(t, db, sql, calls, started, release, sampleCalls, workers)
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

// TestQueryContextCancelDuringSampling cancels inside the sampler's
// top-up. Seed it catches: context.Background() handed to the top-up's
// Meter.EvalRows (core.Sampler.TopUpCtx).
func TestQueryContextCancelDuringSampling(t *testing.T) {
	// GROUP ON skips labeling: the first UDF calls are the sampler's
	// two-third-power top-up, so call 3 is mid-sampling.
	runCancelledApprox(t,
		`SELECT * FROM loans WHERE good_credit(id) = 1
		 WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.8 GROUP ON grade`, 3000, 3)
}

// TestQueryContextCancelDuringExecution cancels inside the probabilistic
// executor. Seed it catches: context.Background() handed to
// core.ExecuteParallelCtx in engine.opProbEval.
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
