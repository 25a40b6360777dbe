package engine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
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
		BodyErr: func(_ context.Context, v table.Value) (bool, error) {
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

func exactQuery(onFailure FailurePolicy) Query {
	return Query{Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true, OnFailure: onFailure}
}

func TestFailPolicyReturnsTypedError(t *testing.T) {
	e, _ := newFallibleEngine(t, 300, map[int64]bool{17: true})
	_, err := e.ExecuteContext(context.Background(), exactQuery(FailOnError))
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

func TestSkipPolicyExcludesFailedRows(t *testing.T) {
	failIDs := map[int64]bool{5: true, 100: true, 250: true}
	e, truth := newFallibleEngine(t, 300, failIDs)
	res, err := e.ExecuteContext(context.Background(), exactQuery(SkipFailed))
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
	if res.Stats.Degraded {
		t.Error("skip must not mark the result degraded")
	}
}

func TestDegradePolicyMarksDegraded(t *testing.T) {
	e, _ := newFallibleEngine(t, 300, map[int64]bool{5: true})
	res, err := e.ExecuteContext(context.Background(), exactQuery(DegradeFailed))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Degraded || res.Stats.FailedRows != 1 {
		t.Fatalf("Degraded=%v FailedRows=%d, want degraded with 1 failed row", res.Stats.Degraded, res.Stats.FailedRows)
	}
	// No failures → not degraded, even under the degrade policy.
	e2, _ := newFallibleEngine(t, 300, nil)
	res2, err := e2.ExecuteContext(context.Background(), exactQuery(DegradeFailed))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Degraded || res2.Stats.FailedRows != 0 {
		t.Fatalf("clean run reported Degraded=%v FailedRows=%d", res2.Stats.Degraded, res2.Stats.FailedRows)
	}
}

func TestEngineDefaultPolicyApplies(t *testing.T) {
	e, _ := newFallibleEngine(t, 300, map[int64]bool{5: true})
	e.OnFailure = SkipFailed
	res, err := e.ExecuteContext(context.Background(), exactQuery("")) // query defers to the engine default
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FailedRows != 1 {
		t.Fatalf("FailedRows = %d, want 1 under the engine-default skip policy", res.Stats.FailedRows)
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
		BodyErr: func(_ context.Context, v table.Value) (bool, error) {
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
	res, err := e.ExecuteContext(context.Background(), exactQuery(FailOnError))
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
	res, err := e.ExecuteContext(context.Background(), exactQuery(SkipFailed))
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
	if err := e.RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
	// Row 5 fails during the first query only; the service then "recovers".
	var mu sync.Mutex
	healthy := false
	err := e.RegisterUDF(UDF{
		Name: "good_credit",
		BodyErr: func(_ context.Context, v table.Value) (bool, error) {
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
	res1, err := e.ExecuteContext(context.Background(), exactQuery(SkipFailed))
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.FailedRows != 1 {
		t.Fatalf("first query FailedRows = %d, want 1", res1.Stats.FailedRows)
	}
	mu.Lock()
	healthy = true
	mu.Unlock()
	res2, err := e.ExecuteContext(context.Background(), exactQuery(SkipFailed))
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
	err := e.RegisterUDF(UDF{
		Name:    "x",
		Body:    func(table.Value) bool { return true },
		BodyErr: func(context.Context, table.Value) (bool, error) { return true, nil },
	})
	if err == nil {
		t.Error("want an error registering a UDF with both bodies")
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
	res, err := e.ExecuteContext(context.Background(), Query{
		Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true,
		Approx: approx(0.8, 0.8, 0.8), GroupOn: "grade", OnFailure: DegradeFailed,
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
// full Stats struct are bit-identical at parallelism 1 and 8.
func TestTwoPredBreakerTripsDeterministic(t *testing.T) {
	q := Query{
		Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true,
		Conjuncts: []Conjunct{{UDFName: "rich", UDFArg: "income", Want: true}},
		Approx:    approx(0.8, 0.8, 0.8), GroupOn: "grade", OnFailure: SkipFailed,
	}
	run := func(parallelism int) *Result {
		e, _ := newChaosEngine(t, 3000, parallelism, 0)
		e.Breaker = resilience.BreakerConfig{Window: 8, MinCalls: 4, FailureRate: 0.5, Cooldown: 8, Probes: 2, Segment: 8}
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
