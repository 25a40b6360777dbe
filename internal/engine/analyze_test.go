package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/resilience"
	"repro/internal/table"
)

// analyzeEngine builds an engine whose UDF fails transiently-but-
// persistently on a block of ids (so invocations retry AND ultimately
// fail), with a tight breaker so the failure run trips it. Parallelism is
// the variable under test: every EXPLAIN ANALYZE count must be identical
// at any setting.
func analyzeEngine(t testing.TB, parallelism int) *Engine {
	t.Helper()
	tbl, truth := buildLoanTable(t, 300, 42)
	e := New(7)
	e.Parallelism = parallelism
	e.Retry = resilience.Policy{Sleep: func(context.Context, time.Duration) error { return nil }}
	e.Breaker = resilience.BreakerConfig{Window: 8, MinCalls: 4, FailureRate: 0.5, Cooldown: 200, Probes: 2, Segment: 8}
	e.OnFailure = DegradeFailed
	if err := e.RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
	err := e.RegisterUDF(UDF{
		Name: "good_credit",
		Body: func(_ context.Context, v table.Value) (bool, error) {
			id := v.(int64)
			if id >= 50 && id < 150 {
				return false, resilience.New(resilience.Transient, "udf", errors.New("service flapping"))
			}
			return truth[id], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runAnalyzed executes the exact query under EXPLAIN ANALYZE and returns
// the annotated plan text with wall times stripped (ZeroTimings), plus
// the result.
func runAnalyzed(t testing.TB, e *Engine) (string, *Result) {
	t.Helper()
	chain, res, err := e.ExplainAnalyzeContext(context.Background(), exactQuery())
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || chain == nil {
		t.Fatal("ExplainAnalyzeContext returned nil result or plan")
	}
	plan.ZeroTimings(chain)
	return plan.Format(chain), res
}

func TestExplainAnalyzeCountsDeterministicAcrossParallelism(t *testing.T) {
	// Two runs against one engine: the first trips the breaker (and
	// retries its transient failures); the second sees breaker denials.
	// Both annotated plans — count fields only — must be bit-identical at
	// parallelism 1 and 8.
	render := func(parallelism int) (string, string) {
		e := analyzeEngine(t, parallelism)
		cold, _ := runAnalyzed(t, e)
		warm, _ := runAnalyzed(t, e)
		return cold, warm
	}
	cold1, warm1 := render(1)
	cold8, warm8 := render(8)
	if cold1 != cold8 {
		t.Fatalf("cold EXPLAIN ANALYZE counts differ across parallelism:\n--- p=1 ---\n%s\n--- p=8 ---\n%s", cold1, cold8)
	}
	if warm1 != warm8 {
		t.Fatalf("warm EXPLAIN ANALYZE counts differ across parallelism:\n--- p=1 ---\n%s\n--- p=8 ---\n%s", warm1, warm8)
	}
	evalLine := func(text string) string {
		for _, line := range strings.Split(text, "\n") {
			if strings.Contains(line, "exact-eval") {
				return line
			}
		}
		return ""
	}
	// Cold run: charged calls, retries and failures, no denials possible
	// (a never-tripped breaker runs the batch as one ungated wave).
	for _, want := range []string{"actual ", "rows=", "calls=", "retries=", "failed="} {
		if !strings.Contains(evalLine(cold1), want) {
			t.Errorf("cold exact-eval line missing %q: %s", want, evalLine(cold1))
		}
	}
	// Warm run: the tripped breaker denies the still-failing block.
	if !strings.Contains(evalLine(warm1), "denied=") {
		t.Errorf("warm exact-eval line missing denials: %s", evalLine(warm1))
	}
	if strings.Contains(cold1, "time=") || strings.Contains(warm1, "time=") {
		t.Error("ZeroTimings left wall-clock fields in the rendered plan")
	}
}

func TestExplainAnalyzeActualNodes(t *testing.T) {
	e := analyzeEngine(t, 4)
	chain, res, err := e.ExplainAnalyzeContext(context.Background(), exactQuery())
	if err != nil {
		t.Fatal(err)
	}
	scan := chain.Find(plan.OpScan)
	if scan == nil || scan.Actual == nil || scan.Actual.Rows != 300 {
		t.Fatalf("scan node actual = %+v, want rows=300", scan)
	}
	eval := chain.Find(plan.OpExactEval)
	if eval == nil || eval.Actual == nil {
		t.Fatal("exact-eval node missing actuals")
	}
	a := eval.Actual
	if a.Rows != len(res.Rows) {
		t.Errorf("eval rows = %d, want %d", a.Rows, len(res.Rows))
	}
	if a.Calls != res.Stats.Evaluations {
		t.Errorf("eval calls = %d, want %d", a.Calls, res.Stats.Evaluations)
	}
	if a.Retries != res.Stats.Retries {
		t.Errorf("eval retries = %d, want %d", a.Retries, res.Stats.Retries)
	}
	if a.Failed != res.Stats.FailedRows {
		t.Errorf("eval failed = %d, want %d", a.Failed, res.Stats.FailedRows)
	}
	if a.Retries == 0 {
		t.Error("eval retries = 0, want transient failures retried")
	}
	if a.ElapsedNS <= 0 {
		t.Error("eval elapsed not measured")
	}

	// Second query against the tripped breaker: denials recorded, and only
	// for rows that could not resolve from the warm cache.
	chain2, res2, err := e.ExplainAnalyzeContext(context.Background(), exactQuery())
	if err != nil {
		t.Fatal(err)
	}
	a2 := chain2.Find(plan.OpExactEval).Actual
	if a2.Denied == 0 {
		t.Error("second-run denied = 0, want breaker denials recorded")
	}
	if a2.Denied > a2.Failed {
		t.Errorf("denied %d > failed %d: denials are a subset of failures", a2.Denied, a2.Failed)
	}
	if a2.Failed != res2.Stats.FailedRows {
		t.Errorf("second-run failed = %d, want %d", a2.Failed, res2.Stats.FailedRows)
	}
}

func TestExplainAnalyzeApproxPipeline(t *testing.T) {
	tbl, truth := buildLoanTable(t, 600, 42)
	e := New(7)
	if err := e.RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterUDF(UDF{Name: "good_credit", Body: pure(func(v table.Value) bool { return truth[v.(int64)] })}); err != nil {
		t.Fatal(err)
	}
	q := Query{
		Table: "loans", Predicates: []Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: true}},
		GroupOn: "grade",
		Approx:  &Approx{Precision: 0.9, Recall: 0.9, Probability: 0.9},
	}
	chain, res, err := e.ExplainAnalyzeContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	gr := chain.Find(plan.OpGroupResolve)
	if gr == nil || gr.Actual == nil || gr.Actual.Groups != 3 {
		t.Fatalf("group-resolve actual = %+v, want 3 groups", gr)
	}
	smp := chain.Find(plan.OpSample)
	if smp == nil || smp.Actual == nil || smp.Actual.Rows != res.Stats.Sampled {
		t.Fatalf("sample actual = %+v, want rows=%d", smp, res.Stats.Sampled)
	}
	mrg := chain.Find(plan.OpMerge)
	if mrg == nil || mrg.Actual == nil || mrg.Actual.Rows != len(res.Rows) {
		t.Fatalf("merge actual = %+v, want rows=%d", mrg, len(res.Rows))
	}
}

// TestPlanIsPipeline pins the invariant that the chain EXPLAIN prints is the
// pipeline that runs: for every statement shape, at parallelism 1 and 8,
// every node of the analyzed chain carries an Actual (no node is
// display-only), the per-operator deltas add up to the statement's Stats
// (each operator is the unit of accounting, nothing is charged outside one),
// and the finisher reports the result rows.
func TestPlanIsPipeline(t *testing.T) {
	base := Query{Table: "loans", Predicates: []Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: true}}}
	with := func(mut func(*Query)) Query {
		q := base
		mut(&q)
		return q
	}
	and := func(names ...string) []Conjunct {
		cs := []Conjunct{base.Predicates[0]}
		for _, name := range names {
			cs = append(cs, Conjunct{UDFName: name, UDFArg: "id", Want: true})
		}
		return cs
	}
	shapes := []struct {
		name string
		q    Query
	}{
		{"exact", base},
		{"approx", with(func(q *Query) { q.Approx = approx(0.8, 0.8, 0.8); q.GroupOn = "grade" })},
		{"discover", with(func(q *Query) { q.Approx = approx(0.8, 0.8, 0.8) })},
		{"budget", with(func(q *Query) { q.Approx = approx(0.8, 0.8, 0.8); q.GroupOn = "grade"; q.Budget = 1500 })},
		{"filtered", with(func(q *Query) { q.Filters = []Filter{{Column: "grade", Value: "A"}} })},
		{"exact3", with(func(q *Query) { q.Predicates = and("div3", "div5") })},
		{"twopred", with(func(q *Query) {
			q.Predicates = and("div3")
			q.Approx = approx(0.8, 0.8, 0.8)
			q.GroupOn = "grade"
		})},
		{"nary", with(func(q *Query) {
			q.Predicates = and("div3", "div5")
			q.Approx = approx(0.8, 0.8, 0.8)
			q.GroupOn = "grade"
		})},
		{"join", with(func(q *Query) {
			q.Approx = approx(0.8, 0.8, 0.8)
			q.GroupOn = "grade"
			q.Join = &Join{Table: "orders", LeftKey: "id", RightKey: "loan_id"}
		})},
	}
	for _, shape := range shapes {
		for _, par := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/p%d", shape.name, par), func(t *testing.T) {
				e, _, _ := newTestEngine(t, 900)
				e.Parallelism = par
				registerModUDF(t, e, "div3", 3)
				registerModUDF(t, e, "div5", 5)
				var ids []int64
				for i := 0; i < 2000; i++ {
					ids = append(ids, int64((i*7)%600))
				}
				ordersFor(t, e, ids)
				chain, res, err := e.ExplainAnalyzeContext(context.Background(), shape.q)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) == 0 || res.Stats.Evaluations == 0 {
					t.Fatal("query returned or evaluated nothing; the sums below would be vacuous")
				}
				var calls, hits, misses int
				for _, n := range chain {
					if n.Actual == nil {
						t.Fatalf("node %s has no Actual: no operator ran it\n%s", n.Op, plan.Format(chain))
					}
					calls += n.Actual.Calls
					hits += n.Actual.CacheHits
					misses += n.Actual.CacheMisses
				}
				if calls != res.Stats.Evaluations || hits != res.Stats.CacheHits || misses != res.Stats.CacheMisses {
					t.Errorf("operators account for calls=%d hits=%d misses=%d, Stats say %d/%d/%d\n%s",
						calls, hits, misses, res.Stats.Evaluations, res.Stats.CacheHits, res.Stats.CacheMisses, plan.Format(chain))
				}
				if last := chain[len(chain)-1]; last.Actual.Rows != len(res.Rows) {
					t.Errorf("finisher %s reports %d rows, result has %d", last.Op, last.Actual.Rows, len(res.Rows))
				}
				// The filters are answered at bind; their time is the filter
				// node's, not lost between nodes.
				if f := chain.Find(plan.OpFilter); f != nil && f.Actual.ElapsedNS <= 0 {
					t.Errorf("filter node reports no elapsed time\n%s", plan.Format(chain))
				}
				if shape.name == "twopred" {
					if smp := chain.Find(plan.OpConjSample); smp.Actual.Rows != res.Stats.Sampled || smp.Actual.Rows == 0 {
						t.Errorf("conj-sample reports %d rows, Stats.Sampled = %d", smp.Actual.Rows, res.Stats.Sampled)
					}
				}
			})
		}
	}
}

// TestTwoPredCostBillsEachPredicateItsOwnRate: on the §5 shape every
// predicate's charged calls pay that predicate's o_e — the rate EXPLAIN
// estimates the same node with — not the first predicate's.
func TestTwoPredCostBillsEachPredicateItsOwnRate(t *testing.T) {
	e, _, goodCalls := newTestEngine(t, 1500) // good_credit at the default o_e = 3
	richCalls := new(atomic.Int64)
	if err := e.RegisterUDF(UDF{Name: "rich", Cost: 7, Body: pure(func(v table.Value) bool {
		richCalls.Add(1)
		return v.(float64) > 70000
	})}); err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecuteContext(context.Background(), Query{
		Table: "loans", Predicates: []Conjunct{
			{UDFName: "good_credit", UDFArg: "id", Want: true},
			{UDFName: "rich", UDFArg: "income", Want: true},
		},
		Approx: approx(0.8, 0.8, 0.8), GroupOn: "grade",
	})
	if err != nil {
		t.Fatal(err)
	}
	good, rich := goodCalls.Load(), richCalls.Load()
	if good == 0 || rich == 0 || int(good+rich) != res.Stats.Evaluations {
		t.Fatalf("calls %d + %d, Stats.Evaluations = %d", good, rich, res.Stats.Evaluations)
	}
	want := float64(res.Stats.Retrievals)*1 + float64(good)*3 + float64(rich)*7
	if res.Stats.Cost != want {
		t.Fatalf("Stats.Cost = %v, want %v (%d retrievals·1 + %d calls·3 + %d calls·7)",
			res.Stats.Cost, want, res.Stats.Retrievals, good, rich)
	}
}

func TestTraceSpansCoverPipeline(t *testing.T) {
	e := analyzeEngine(t, 4)
	tr := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), tr)
	if _, err := e.ExecuteContext(ctx, exactQuery()); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, s := range tr.Spans() {
		names[s.Name] = true
	}
	for _, want := range []string{"bind", "plan", "op:scan", "op:exact-eval"} {
		if !names[want] {
			t.Errorf("missing span %q in %v", want, names)
		}
	}

	// The §5 shape: every stage of its plan is an operator with its own span.
	e2, _, _ := newTestEngine(t, 900)
	registerModUDF(t, e2, "div3", 3)
	tr = obs.NewTrace()
	_, err := e2.ExecuteContext(obs.WithTrace(context.Background(), tr), Query{
		Table: "loans", Predicates: []Conjunct{
			{UDFName: "good_credit", UDFArg: "id", Want: true},
			{UDFName: "div3", UDFArg: "id", Want: true},
		},
		Approx: approx(0.8, 0.8, 0.8), GroupOn: "grade",
	})
	if err != nil {
		t.Fatal(err)
	}
	names = make(map[string]bool)
	for _, s := range tr.Spans() {
		names[s.Name] = true
	}
	for _, want := range []string{"op:group-resolve", "op:conj-sample", "op:conj-solve", "op:conj-exec", "op:merge"} {
		if !names[want] {
			t.Errorf("§5 shape: missing span %q in %v", want, names)
		}
	}
}
