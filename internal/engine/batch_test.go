package engine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/table"
)

// newChaosEngine builds an engine over the loan table whose UDF misbehaves
// deterministically per row id: ids ≡ 3 (mod 7) fail their first attempt
// with a transient error (the retry then succeeds), and ids ≡ 5 (mod 13)
// fail every attempt (the row ultimately fails; the engine runs under
// "degrade").
// Failure is keyed on the row's value, never on timing or batch shape, so
// results must be identical at every parallelism level and batch size. The
// breaker is configured to never trip — trip timing is the one documented
// batch-size-sensitive behavior, so determinism tests must keep it out of
// play.
func newChaosEngine(t testing.TB, n, parallelism, batchSize int) (*Engine, map[int64]bool) {
	t.Helper()
	tbl, truth := buildLoanTable(t, n, 42)
	e := New(7)
	e.Parallelism = parallelism
	e.BatchSize = batchSize
	e.Retry = resilience.Policy{Sleep: func(context.Context, time.Duration) error { return nil }}
	e.OnFailure = DegradeFailed
	e.Breaker = resilience.BreakerConfig{Window: 1 << 20, MinCalls: 1 << 20, FailureRate: 1, Segment: 1 << 20}
	if err := e.RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	attempts := make(map[int64]int)
	err := e.RegisterUDF(UDF{
		Name: "good_credit",
		Body: func(_ context.Context, v table.Value) (bool, error) {
			id := v.(int64)
			mu.Lock()
			attempts[id]++
			attempt := attempts[id]
			mu.Unlock()
			if id%13 == 5 {
				return false, fmt.Errorf("chaos: id %d is down", id)
			}
			if id%7 == 3 && attempt == 1 {
				return false, fmt.Errorf("chaos: id %d flaked", id)
			}
			return truth[id], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = e.RegisterUDF(UDF{
		Name: "rich",
		Body: pure(func(v table.Value) bool { return v.(float64) > 70000 }),
		Cost: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = e.RegisterUDF(UDF{
		Name: "even",
		Body: pure(func(v table.Value) bool { return v.(int64)%2 == 0 }),
		Cost: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, truth
}

// filteredApprox is the filtered-approximate shape: cheap filter below a
// blocking sampling chain, whose stages read the filtered universe bound
// before they run.
var filteredApprox = Query{
	Table: "loans", Predicates: []Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: true}},
	Filters: []Filter{{Column: "grade", Value: "B"}},
	Approx:  approx(0.8, 0.8, 0.8), GroupOn: "purpose",
}

// TestBatchDeterminismMatrix pins the PR 1 determinism contract onto the
// batch executor: for a fixed seed, rows and the full Stats struct are
// bit-for-bit identical across parallelism {1, 8} × batch size
// {1, 64, 4096} — batch sizes below, at and above the table size — on
// seeded chaos workloads covering every pipeline family (fused
// scan+filter, exact streaming eval, conjunction waves, the blocking
// sampling pipeline, the §5 two-predicate plan, and the greedy N-ary waves
// above a joint sample).
func TestBatchDeterminismMatrix(t *testing.T) {
	queries := map[string]Query{
		"exact-filtered": {
			Table: "loans", Predicates: []Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: true}},
			Filters: []Filter{{Column: "grade", Value: "B"}},
		},
		"conj-waves": {
			Table: "loans", Predicates: []Conjunct{
				{UDFName: "good_credit", UDFArg: "id", Want: true},
				{UDFName: "rich", UDFArg: "income", Want: true},
			},
		},
		"approx-grouped": {
			Table: "loans", Predicates: []Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: true}},
			Approx: approx(0.8, 0.8, 0.8), GroupOn: "grade",
		},
		"conj-twopred": {
			Table: "loans", Predicates: []Conjunct{
				{UDFName: "good_credit", UDFArg: "id", Want: true},
				{UDFName: "rich", UDFArg: "income", Want: true},
			},
			Approx: approx(0.8, 0.8, 0.8), GroupOn: "grade",
		},
		// The filtered universe below a blocking chain: the stages read
		// st.subset, bound before any of them runs, so the batch size must
		// not reach what they sample, plan or execute.
		"approx-filtered": filteredApprox,
		// The one shape whose streaming terminal is fed by a stage rather
		// than by the scan: conj-waves[greedy] above conj-sample, where the
		// rows the joint sample decided are skipped batch by batch.
		"conj-greedy": {
			Table: "loans", Predicates: []Conjunct{
				{UDFName: "good_credit", UDFArg: "id", Want: true},
				{UDFName: "rich", UDFArg: "income", Want: true},
				{UDFName: "even", UDFArg: "id", Want: true},
			},
			Approx: approx(0.8, 0.8, 0.8), GroupOn: "grade",
		},
	}
	type combo struct{ parallelism, batch int }
	var combos []combo
	for _, p := range []int{1, 8} {
		for _, b := range []int{1, 64, 4096} {
			combos = append(combos, combo{p, b})
		}
	}
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			var baseRows []int
			var baseStats Stats
			for i, c := range combos {
				// A fresh engine per run: the chaos attempt counters and the
				// RNG must restart identically.
				e, _ := newChaosEngine(t, 600, c.parallelism, c.batch)
				res, err := e.ExecuteContext(context.Background(), q)
				if err != nil {
					t.Fatalf("p=%d batch=%d: %v", c.parallelism, c.batch, err)
				}
				if i == 0 {
					baseRows, baseStats = res.Rows, res.Stats
					if len(baseRows) == 0 {
						t.Fatalf("workload %s returned no rows; the matrix would compare nothing", name)
					}
					continue
				}
				if !reflect.DeepEqual(res.Rows, baseRows) {
					t.Errorf("p=%d batch=%d: rows diverged (%d vs %d)",
						c.parallelism, c.batch, len(res.Rows), len(baseRows))
				}
				if res.Stats != baseStats {
					t.Errorf("p=%d batch=%d: stats diverged:\n got %+v\nwant %+v",
						c.parallelism, c.batch, res.Stats, baseStats)
				}
			}
		})
	}
}

// TestStreamMatchesMaterialized pins that streaming delivers exactly the
// materialized result: same rows in the same order, same Stats.
func TestStreamMatchesMaterialized(t *testing.T) {
	queries := map[string]Query{
		"exact":           {Table: "loans", Predicates: []Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: true}}},
		"approx-filtered": filteredApprox,
	}
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			e1, _ := newChaosEngine(t, 600, 4, 64)
			want, err := e1.ExecuteContext(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rows) == 0 {
				t.Fatal("materialized result is empty; the comparison would prove nothing")
			}
			e2, _ := newChaosEngine(t, 600, 4, 64)
			var got []int
			stats, err := e2.ExecuteStreamContext(context.Background(), q, func(rows []int) error {
				got = append(got, rows...)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want.Rows) {
				t.Fatalf("streamed %d rows, materialized %d; orders differ", len(got), len(want.Rows))
			}
			if stats != want.Stats {
				t.Fatalf("streamed stats %+v, materialized %+v", stats, want.Stats)
			}
		})
	}
}

// TestStreamEarlyStopCancelsUpstream is the regression test for the
// limit/stream interplay at the engine layer: a sink that stops after the
// first batch must cancel upstream evaluation — the engine must not pay
// for rows the consumer will never see.
func TestStreamEarlyStopCancelsUpstream(t *testing.T) {
	e, _, calls := newTestEngine(t, 2000)
	e.BatchSize = 16
	e.Parallelism = 1
	q := Query{Table: "loans", Predicates: []Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: true}}}
	var got []int
	stats, err := e.ExecuteStreamContext(context.Background(), q, func(rows []int) error {
		got = append(got, rows...)
		return ErrStopStream
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) > 16 {
		t.Fatalf("first batch delivered %d rows, want 1..16", len(got))
	}
	if n := calls.Load(); n >= 2000 {
		t.Fatalf("early stop still evaluated every row (%d calls)", n)
	}
	if stats.Evaluations >= 2000 {
		t.Fatalf("Stats.Evaluations = %d, want far fewer than the 2000-row table", stats.Evaluations)
	}
	// The engine (and its caches) must stay fully usable after a stop.
	res, err := e.ExecuteContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("engine unusable after an early-stopped stream")
	}
}

// TestStreamFirstBatchBeforeLastWave pins the core streaming property:
// with a streaming plan shape, the first batch reaches the sink while
// later rows are still unevaluated.
func TestStreamFirstBatchBeforeLastWave(t *testing.T) {
	e, _, calls := newTestEngine(t, 1000)
	e.BatchSize = 8
	q := Query{Table: "loans", Predicates: []Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: true}}}
	var callsAtFirstBatch int64 = -1
	_, err := e.ExecuteStreamContext(context.Background(), q, func(rows []int) error {
		if callsAtFirstBatch < 0 {
			callsAtFirstBatch = calls.Load()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if callsAtFirstBatch < 0 {
		t.Fatal("sink never called")
	}
	if callsAtFirstBatch >= 1000 {
		t.Fatalf("first batch arrived only after all %d evaluations", callsAtFirstBatch)
	}
}

// TestBatchCountersAdvance pins the batch observability counters: emitted
// batches are counted, the peak batch size is tracked, and nothing stays
// in flight once queries finish.
func TestBatchCountersAdvance(t *testing.T) {
	e, _, _ := newTestEngine(t, 300)
	e.BatchSize = 64
	_, err := e.ExecuteStreamContext(context.Background(),
		Query{Table: "loans", Predicates: []Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: true}}},
		func([]int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	inFlight, peak, total := e.BatchCounters()
	if inFlight != 0 {
		t.Errorf("in-flight batches = %d after completion, want 0", inFlight)
	}
	if peak <= 0 || peak > 64 {
		t.Errorf("peak batch rows = %d, want 1..64", peak)
	}
	if total <= 0 {
		t.Errorf("total batches = %d, want > 0", total)
	}
}

// TestBatchSizeKnobHonored pins that the configured batch size bounds
// every emitted batch.
func TestBatchSizeKnobHonored(t *testing.T) {
	for _, size := range []int{1, 7, 256} {
		e, _, _ := newTestEngine(t, 300)
		e.BatchSize = size
		batches := 0
		_, err := e.ExecuteStreamContext(context.Background(),
			Query{Table: "loans", Predicates: []Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: true}}},
			func(rows []int) error {
				batches++
				if len(rows) == 0 || len(rows) > size {
					t.Fatalf("size=%d: batch of %d rows", size, len(rows))
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if batches == 0 {
			t.Fatalf("size=%d: no batches", size)
		}
	}
}
