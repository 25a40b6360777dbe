package engine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/table"
)

// newFallibleEngine builds an engine whose UDF fails permanently on the
// given ids. Retry backoff is stubbed out so tests run instantly.
func newFallibleEngine(t testing.TB, n int, failIDs map[int64]bool) (*Engine, map[int64]bool) {
	t.Helper()
	tbl, truth := buildLoanTable(t, n, 42)
	e := New(7)
	e.Retry = resilience.Policy{Sleep: func(context.Context, time.Duration) error { return nil }}
	if err := e.RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
	err := e.RegisterUDF(UDF{
		Name: "good_credit",
		Body: func(_ context.Context, v table.Value) (bool, error) {
			id := v.(int64)
			if failIDs[id] {
				return false, resilience.New(resilience.Permanent, "udf", errors.New("row is cursed"))
			}
			return truth[id], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, truth
}

func exactQuery() Query {
	return Query{Table: "loans", Predicates: []Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: true}}}
}

func TestFailPolicyReturnsTypedError(t *testing.T) {
	e, _ := newFallibleEngine(t, 300, map[int64]bool{17: true})
	_, err := e.ExecuteContext(context.Background(), exactQuery())
	if err == nil {
		t.Fatal("want the query to fail under the fail policy")
	}
	if !strings.Contains(err.Error(), "good_credit") || !strings.Contains(err.Error(), "failed on row") {
		t.Fatalf("err = %v, want a typed per-row failure message", err)
	}
	var re *resilience.Error
	if !errors.As(err, &re) || re.Kind != resilience.Permanent {
		t.Fatalf("err = %v, want to unwrap to the permanent resilience error", err)
	}
}

// TestFailOnErrorNamesSameRowAtAnyParallelism pins the FailOnError error to
// the meter's ledger, not to scheduling: row 100 fails after 2 ms and the
// other failing rows at once, so a parallel scan settles a higher row's
// failure first — the error must still name row 100, identically at every
// parallelism × batch size. The breaker case fails a run long enough to
// trip the breaker, so denied rows exist beside the body failures.
func TestFailOnErrorNamesSameRowAtAnyParallelism(t *testing.T) {
	cases := []struct {
		name     string
		fails    func(id int64) bool
		wantTrip bool
	}{
		{"two-rows", func(id int64) bool { return id == 100 || id == 900 }, false},
		{"breaker", func(id int64) bool { return id == 100 || id >= 600 }, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var want string
			for _, par := range []int{1, 8} {
				for _, batch := range []int{1, 64, 1024} {
					tbl, truth := buildLoanTable(t, 1000, 42)
					e := New(7)
					e.Parallelism, e.BatchSize = par, batch
					if err := e.RegisterTable(tbl); err != nil {
						t.Fatal(err)
					}
					err := e.RegisterUDF(UDF{
						Name: "good_credit",
						Body: func(_ context.Context, v table.Value) (bool, error) {
							id := v.(int64)
							if id == 100 {
								time.Sleep(2 * time.Millisecond)
							}
							if c.fails(id) {
								return false, resilience.New(resilience.Permanent, "udf", errors.New("row is cursed"))
							}
							return truth[id], nil
						},
					})
					if err != nil {
						t.Fatal(err)
					}
					_, err = e.ExecuteContext(context.Background(), exactQuery())
					if err == nil || !strings.Contains(err.Error(), "failed on row 100:") {
						t.Fatalf("p=%d batch=%d: err = %v, want the failure on row 100", par, batch, err)
					}
					if want == "" {
						want = err.Error()
					} else if err.Error() != want {
						t.Fatalf("p=%d batch=%d: err = %q, want %q", par, batch, err, want)
					}
					if tripped := e.BreakerStatuses()[0].Trips > 0; c.wantTrip && batch < 1024 && !tripped {
						t.Fatalf("p=%d batch=%d: breaker never tripped — no denials to rank", par, batch)
					}
				}
			}
		})
	}
}

func TestDegradePolicyExcludesFailedRows(t *testing.T) {
	failIDs := map[int64]bool{5: true, 100: true, 250: true}
	e, truth := newFallibleEngine(t, 300, failIDs)
	e.OnFailure = DegradeFailed
	res, err := e.ExecuteContext(context.Background(), exactQuery())
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for id, v := range truth {
		if v && !failIDs[id] {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Fatalf("got %d rows, want %d (failed rows excluded)", len(res.Rows), want)
	}
	for _, row := range res.Rows {
		if failIDs[int64(row)] {
			t.Fatalf("failed row %d leaked into the output", row)
		}
	}
	if res.Stats.FailedRows != len(failIDs) {
		t.Errorf("FailedRows = %d, want %d", res.Stats.FailedRows, len(failIDs))
	}
	if !res.Stats.Degraded {
		t.Error("a result that excluded failed rows must be marked degraded")
	}
}

func TestDegradePolicyMarksDegraded(t *testing.T) {
	e, _ := newFallibleEngine(t, 300, map[int64]bool{5: true})
	e.OnFailure = DegradeFailed
	res, err := e.ExecuteContext(context.Background(), exactQuery())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Degraded || res.Stats.FailedRows != 1 {
		t.Fatalf("Degraded=%v FailedRows=%d, want degraded with 1 failed row", res.Stats.Degraded, res.Stats.FailedRows)
	}
	// No failures → not degraded, even under the degrade policy.
	e2, _ := newFallibleEngine(t, 300, nil)
	e2.OnFailure = DegradeFailed
	res2, err := e2.ExecuteContext(context.Background(), exactQuery())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Degraded || res2.Stats.FailedRows != 0 {
		t.Fatalf("clean run reported Degraded=%v FailedRows=%d", res2.Stats.Degraded, res2.Stats.FailedRows)
	}
}

// TestEngineDefaultPolicyApplies: the zero-valued policy is FailOnError,
// and the engine's policy is every statement's.
func TestEngineDefaultPolicyApplies(t *testing.T) {
	e, _ := newFallibleEngine(t, 300, map[int64]bool{5: true})
	if _, err := e.ExecuteContext(context.Background(), exactQuery()); err == nil {
		t.Fatal("the zero-valued policy answered a statement with a failed row; want FailOnError's error")
	}
	e.OnFailure = DegradeFailed
	res, err := e.ExecuteContext(context.Background(), exactQuery())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FailedRows != 1 || !res.Stats.Degraded {
		t.Fatalf("FailedRows = %d, Degraded = %v; want 1 and true under the engine's degrade policy", res.Stats.FailedRows, res.Stats.Degraded)
	}
}

func TestRetriesCountedAndTransientRecovers(t *testing.T) {
	tbl, truth := buildLoanTable(t, 200, 42)
	e := New(7)
	e.Retry = resilience.Policy{MaxAttempts: 3, Sleep: func(context.Context, time.Duration) error { return nil }}
	if err := e.RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
	// Every 10th id fails its first two attempts, then succeeds.
	var mu sync.Mutex
	attempts := make(map[int64]int)
	err := e.RegisterUDF(UDF{
		Name: "good_credit",
		Body: func(_ context.Context, v table.Value) (bool, error) {
			id := v.(int64)
			if id%10 == 0 {
				mu.Lock()
				attempts[id]++
				a := attempts[id]
				mu.Unlock()
				if a <= 2 {
					return false, errors.New("transient blip")
				}
			}
			return truth[id], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecuteContext(context.Background(), exactQuery())
	if err != nil {
		t.Fatalf("transient errors within the retry budget must not fail the query: %v", err)
	}
	if res.Stats.FailedRows != 0 {
		t.Errorf("FailedRows = %d, want 0 (all rows recovered)", res.Stats.FailedRows)
	}
	if want := 2 * 20; res.Stats.Retries != want { // 20 flaky ids × 2 extra attempts
		t.Errorf("Retries = %d, want %d", res.Stats.Retries, want)
	}
	wantRows := 0
	for _, v := range truth {
		if v {
			wantRows++
		}
	}
	if len(res.Rows) != wantRows {
		t.Errorf("got %d rows, want %d", len(res.Rows), wantRows)
	}
}

func TestBreakerTripRecordedInStats(t *testing.T) {
	// A long run of consecutive failures trips the breaker; the denied
	// remainder resolves as failed rows without invoking the UDF.
	failIDs := make(map[int64]bool)
	for id := int64(50); id < 150; id++ {
		failIDs[id] = true
	}
	e, _ := newFallibleEngine(t, 300, failIDs)
	e.Breaker = resilience.BreakerConfig{Window: 8, MinCalls: 4, FailureRate: 0.5, Cooldown: 200, Probes: 2, Segment: 8}
	e.OnFailure = DegradeFailed
	res, err := e.ExecuteContext(context.Background(), exactQuery())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BreakerTrips == 0 {
		t.Fatal("BreakerTrips = 0, want the failure run to trip the breaker")
	}
	if res.Stats.FailedRows < len(failIDs) {
		t.Errorf("FailedRows = %d, want ≥ %d (failures + denials)", res.Stats.FailedRows, len(failIDs))
	}
	sts := e.BreakerStatuses()
	if len(sts) != 1 || sts[0].Table != "loans" || sts[0].UDF != "good_credit" || sts[0].Trips == 0 {
		t.Fatalf("BreakerStatuses() = %+v", sts)
	}
}

func TestFailedRowsNotCachedAcrossQueries(t *testing.T) {
	tbl, truth := buildLoanTable(t, 100, 42)
	e := New(7)
	e.Retry = resilience.Policy{Sleep: func(context.Context, time.Duration) error { return nil }}
	e.OnFailure = DegradeFailed
	if err := e.RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
	// Row 5 fails during the first query only; the service then "recovers".
	var mu sync.Mutex
	healthy := false
	err := e.RegisterUDF(UDF{
		Name: "good_credit",
		Body: func(_ context.Context, v table.Value) (bool, error) {
			id := v.(int64)
			mu.Lock()
			h := healthy
			mu.Unlock()
			if id == 5 && !h {
				return false, resilience.New(resilience.Permanent, "udf", errors.New("down"))
			}
			return truth[id], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := e.ExecuteContext(context.Background(), exactQuery())
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.FailedRows != 1 {
		t.Fatalf("first query FailedRows = %d, want 1", res1.Stats.FailedRows)
	}
	mu.Lock()
	healthy = true
	mu.Unlock()
	res2, err := e.ExecuteContext(context.Background(), exactQuery())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.FailedRows != 0 {
		t.Fatalf("second query FailedRows = %d, want 0 — the failure must not have been cached", res2.Stats.FailedRows)
	}
	has5 := false
	for _, row := range res2.Rows {
		if row == 5 {
			has5 = true
		}
	}
	if truth[5] != has5 {
		t.Errorf("row 5 in second result = %v, want %v (re-evaluated after recovery)", has5, truth[5])
	}
}

func TestRegisterUDFBodyValidation(t *testing.T) {
	e := New(1)
	if err := e.RegisterUDF(UDF{Name: "x"}); err == nil {
		t.Error("want an error registering a UDF with no body")
	}
}

func TestApproximateQueryWithFailingRowsDegrades(t *testing.T) {
	// Every 5th id fails when invoked. An approximate query may still emit
	// such rows as part of a group accepted without evaluation — failure
	// semantics govern invoked rows only — but the invocations that did fail
	// must be counted, excluded from evidence, and mark the result degraded.
	failIDs := make(map[int64]bool)
	for id := int64(0); id < 3000; id += 5 {
		failIDs[id] = true
	}
	e, _ := newFallibleEngine(t, 3000, failIDs)
	e.OnFailure = DegradeFailed
	res, err := e.ExecuteContext(context.Background(), Query{
		Table: "loans", Predicates: []Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: true}},
		Approx: approx(0.8, 0.8, 0.8), GroupOn: "grade",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FailedRows == 0 || !res.Stats.Degraded {
		t.Errorf("FailedRows=%d Degraded=%v, want the failures surfaced", res.Stats.FailedRows, res.Stats.Degraded)
	}
	if len(res.Rows) == 0 {
		t.Error("degraded approximate query returned no rows at all")
	}
}

// TestTwoPredBreakerTripsDeterministic runs the §5 two-predicate shape on
// value-keyed failures with a breaker that can trip. The §5 plan evaluates
// through the predicates' own resilient meters, so the breaker is consulted
// (BreakerTrips > 0) and — its fold points being sequential — rows and the
// full Stats struct are bit-identical at parallelism 1 and 8. One failure
// among the window's last 8 outcomes trips the breaker, so it trips once
// any row that fails (every id ≡ 5 mod 13) is evaluated after the first
// four, whichever rows the sample and the coins draw.
func TestTwoPredBreakerTripsDeterministic(t *testing.T) {
	q := Query{
		Table: "loans", Predicates: []Conjunct{
			{UDFName: "good_credit", UDFArg: "id", Want: true},
			{UDFName: "rich", UDFArg: "income", Want: true},
		},
		Approx: approx(0.8, 0.8, 0.8), GroupOn: "grade",
	}
	run := func(parallelism int) *Result {
		e, _ := newChaosEngine(t, 3000, parallelism, 0)
		e.Breaker = resilience.BreakerConfig{Window: 8, MinCalls: 4, FailureRate: 0.125, Cooldown: 8, Probes: 2, Segment: 8}
		res, err := e.ExecuteContext(context.Background(), q)
		if err != nil {
			t.Fatalf("p=%d: %v", parallelism, err)
		}
		return res
	}
	seq, par := run(1), run(8)
	if seq.Stats.BreakerTrips == 0 {
		t.Fatalf("the breaker never tripped on the §5 path: %+v", seq.Stats)
	}
	if seq.Stats.Sampled == 0 || seq.Stats.FailedRows == 0 {
		t.Fatalf("scenario is miscalibrated: %+v", seq.Stats)
	}
	if !reflect.DeepEqual(seq.Rows, par.Rows) {
		t.Errorf("rows diverged across parallelism (%d vs %d)", len(seq.Rows), len(par.Rows))
	}
	if seq.Stats != par.Stats {
		t.Errorf("stats diverged across parallelism:\n p=1 %+v\n p=8 %+v", seq.Stats, par.Stats)
	}
}

// TestFailureClassification pins the one classification site,
// rowInvoker.EvalErr, for every failure source that can reach a row: what
// resilience.Classify makes of the error the fail policy returns, whether
// that error unwraps to a *resilience.Error, and how many retries the
// degrade policy's Stats report. Only row 17 fails (every row, for the breaker
// denial); the retry policy allows 3 attempts with no backoff. An untyped
// body error stays Transient and is retried, because DB.RegisterUDFErr
// documents that contract. A cancelled context is no row failure: the
// statement aborts with ctx.Err() under every policy.
//
// Seeds this table catches: an untyped error on Policy.Bound's per-call
// timeout paths (Classify Transient, not Timeout); an untyped error from
// rowInvoker's panic capture (Transient and retried twice, not Panic); an
// untyped chaos injection (no *resilience.Error).
func TestFailureClassification(t *testing.T) {
	const failRow = 17
	chaos := resilience.NewChaos(resilience.ChaosConfig{Seed: 3, ErrorRate: 1})
	injected := chaos.Wrap(func(context.Context, any) (bool, error) { return true, nil })
	cases := []struct {
		name  string
		setup func(e *Engine)
		// fail is good_credit's body on failRow; nil answers from truth.
		fail    func(ctx context.Context, cancel context.CancelFunc) (bool, error)
		kind    resilience.Kind
		typed   bool  // the error unwraps to *resilience.Error
		is      error // a sentinel the error must match, when set
		retries int   // Stats.Retries under the degrade policy
	}{
		{name: "plain body error",
			fail: func(context.Context, context.CancelFunc) (bool, error) {
				return false, errors.New("service said no")
			},
			kind: resilience.Transient, typed: false, retries: 2},
		{name: "permanent",
			fail: func(context.Context, context.CancelFunc) (bool, error) {
				return false, resilience.New(resilience.Permanent, "udf", errors.New("bad input"))
			},
			kind: resilience.Permanent, typed: true, retries: 0},
		{name: "panic",
			fail: func(context.Context, context.CancelFunc) (bool, error) { panic("body crashed") },
			kind: resilience.Panic, typed: true, retries: 0},
		{name: "per-call timeout",
			setup: func(e *Engine) { e.Retry.CallTimeout = 50 * time.Millisecond },
			fail: func(ctx context.Context, _ context.CancelFunc) (bool, error) {
				<-ctx.Done()
				return false, ctx.Err()
			},
			kind: resilience.Timeout, typed: true, retries: 2},
		{name: "chaos injection",
			fail: func(ctx context.Context, _ context.CancelFunc) (bool, error) {
				return injected(ctx, failRow)
			},
			kind: resilience.Transient, typed: true, retries: 2},
		{name: "breaker denial",
			setup: func(e *Engine) {
				e.Breaker = resilience.BreakerConfig{MinCalls: 1, Cooldown: 1 << 20}
				e.breakerFor("loans", "good_credit").Record([]bool{true}) // trips it
			},
			kind: resilience.Transient, typed: false, is: resilience.ErrBreakerOpen, retries: 0},
		{name: "cancelled context",
			fail: func(ctx context.Context, cancel context.CancelFunc) (bool, error) {
				cancel()
				return false, ctx.Err()
			},
			kind: resilience.Transient, typed: false, is: context.Canceled},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(policy FailurePolicy) (*Result, error) {
				tbl, truth := buildLoanTable(t, 64, 42)
				e := New(7)
				e.Retry = resilience.Policy{MaxAttempts: 3, Sleep: func(context.Context, time.Duration) error { return nil }}
				e.OnFailure = policy
				if c.setup != nil {
					c.setup(e)
				}
				if err := e.RegisterTable(tbl); err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				err := e.RegisterUDF(UDF{
					Name: "good_credit",
					Body: func(bctx context.Context, v table.Value) (bool, error) {
						if id := v.(int64); id != failRow || c.fail == nil {
							return truth[id], nil
						}
						return c.fail(bctx, cancel)
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				return e.ExecuteContext(ctx, exactQuery())
			}

			_, err := run(FailOnError)
			if err == nil {
				t.Fatal("fail policy: the query succeeded")
			}
			if got := resilience.Classify(err); got != c.kind {
				t.Errorf("Classify(%v) = %v, want %v", err, got, c.kind)
			}
			var re *resilience.Error
			if typed := errors.As(err, &re); typed != c.typed {
				t.Errorf("errors.As(%v, *resilience.Error) = %t, want %t", err, typed, c.typed)
			}
			if c.is != nil && !errors.Is(err, c.is) {
				t.Errorf("err = %v, want it to match %v", err, c.is)
			}

			res, err := run(DegradeFailed)
			if c.is == context.Canceled {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("degrade policy: err = %v, want the statement aborted with context.Canceled", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("degrade policy: %v", err)
			}
			if res.Stats.FailedRows == 0 {
				t.Errorf("degrade policy: FailedRows = 0, want the failing row counted")
			}
			if res.Stats.Retries != c.retries {
				t.Errorf("degrade policy: Retries = %d, want %d", res.Stats.Retries, c.retries)
			}
		})
	}
}

// TestUDFPanicUnderCallTimeout: with a per-call deadline the body runs on
// the deadline's watchdog goroutine, so its panic must be recovered there,
// inside the invoker's attempt. Under fail the statement's error unwraps to
// a Panic naming the row; under degrade the row is excluded. Seed it catches:
// the deadline wrapping the raw body with the recover outside it — the
// panic then escapes on the watchdog goroutine and kills the process.
func TestUDFPanicUnderCallTimeout(t *testing.T) {
	const panicRow = 17
	run := func(policy FailurePolicy) (*Result, map[int64]bool, error) {
		tbl, truth := buildLoanTable(t, 200, 42)
		e := New(7)
		e.Retry = resilience.Policy{CallTimeout: time.Second, Sleep: func(context.Context, time.Duration) error { return nil }}
		e.OnFailure = policy
		if err := e.RegisterTable(tbl); err != nil {
			t.Fatal(err)
		}
		err := e.RegisterUDF(UDF{Name: "good_credit", Body: pure(func(v table.Value) bool {
			if v.(int64) == panicRow {
				panic("body crashed")
			}
			return truth[v.(int64)]
		})})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.ExecuteContext(context.Background(), exactQuery())
		return res, truth, err
	}

	_, _, err := run(FailOnError)
	var re *resilience.Error
	if !errors.As(err, &re) || re.Kind != resilience.Panic {
		t.Fatalf("fail policy: err = %v, want a *resilience.Error of kind Panic", err)
	}
	if !strings.Contains(err.Error(), "panicked on row 17") {
		t.Fatalf("fail policy: err = %v, want it to name row %d", err, panicRow)
	}

	res, truth, err := run(DegradeFailed)
	if err != nil {
		t.Fatalf("degrade policy: %v", err)
	}
	want := 0
	for id, v := range truth {
		if v && id != panicRow {
			want++
		}
	}
	if len(res.Rows) != want || res.Stats.FailedRows != 1 {
		t.Fatalf("degrade policy: %d rows, %d failed; want %d rows and the panicking row failed", len(res.Rows), res.Stats.FailedRows, want)
	}
	for _, row := range res.Rows {
		if row == panicRow {
			t.Fatalf("degrade policy: the panicking row %d is in the output", panicRow)
		}
	}
}

// TestDiscoveryStopsWhenEveryLabelFails: §4.4 discovery labels 1% of the
// rows and labels more only when every candidate column was disqualified.
// When every label failed there is nothing to qualify a column with, and
// labeling more would only fail more: the statement must stop after one
// labeling round and name the failures, not double its way through the
// table and blame the columns.
func TestDiscoveryStopsWhenEveryLabelFails(t *testing.T) {
	const n = 20000
	tbl, _ := buildLoanTable(t, n, 42)
	e := New(7)
	e.Retry = resilience.Policy{Sleep: func(context.Context, time.Duration) error { return nil }}
	e.OnFailure = DegradeFailed
	if err := e.RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	err := e.RegisterUDF(UDF{Name: "good_credit", Body: func(context.Context, table.Value) (bool, error) {
		calls.Add(1)
		return false, resilience.New(resilience.Permanent, "udf", errors.New("backend down"))
	}})
	if err != nil {
		t.Fatal(err)
	}
	q := exactQuery()
	q.Approx = approx(0.8, 0.8, 0.8)
	_, err = e.ExecuteContext(context.Background(), q)
	if err == nil || !strings.Contains(err.Error(), "backend down") {
		t.Fatalf("err = %v, want the labels' failure named", err)
	}
	if round := int64(n / 100); calls.Load() > round {
		t.Fatalf("%d invocations, want at most one labeling round's %d", calls.Load(), round)
	}
}
