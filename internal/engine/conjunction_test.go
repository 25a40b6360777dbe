package engine

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/table"
)

// registerModUDF registers a UDF passing rows whose id is divisible by mod,
// counting invocations.
func registerModUDF(t *testing.T, e *Engine, name string, mod int64) *atomic.Int64 {
	t.Helper()
	calls := new(atomic.Int64)
	err := e.RegisterUDF(UDF{Name: name, Body: pure(func(v table.Value) bool {
		calls.Add(1)
		return v.(int64)%mod == 0
	})})
	if err != nil {
		t.Fatal(err)
	}
	return calls
}

// naryQuery is a three-predicate conjunction over the loan fixture.
func naryQuery(approximate bool, groupOn string) Query {
	q := Query{
		Table: "loans", Predicates: []Conjunct{
			{UDFName: "good_credit", UDFArg: "id", Want: true},
			{UDFName: "div3", UDFArg: "id", Want: true},
			{UDFName: "div5", UDFArg: "id", Want: true},
		},
		GroupOn: groupOn,
	}
	if approximate {
		q.Approx = approx(0.8, 0.8, 0.8)
	}
	return q
}

// naryTruth computes the ground-truth output of naryQuery.
func naryTruth(truth map[int64]bool, n int) []int {
	var want []int
	for i := 0; i < n; i++ {
		if truth[int64(i)] && i%3 == 0 && i%5 == 0 {
			want = append(want, i)
		}
	}
	return want
}

// TestExecuteNaryConjunction is the acceptance check for the N-ary path: a
// 3-UDF conjunction executes end-to-end, returns the exact answer, and
// spends fewer total UDF evaluations than evaluating every predicate on
// every row — the short-circuit saving.
func TestExecuteNaryConjunction(t *testing.T) {
	const n = 3000
	for _, groupOn := range []string{"", "grade"} {
		for _, par := range []int{1, 8} {
			e, truth, _ := newTestEngine(t, n)
			e.Parallelism = par
			registerModUDF(t, e, "div3", 3)
			registerModUDF(t, e, "div5", 5)
			res, err := e.ExecuteContext(context.Background(), naryQuery(true, groupOn))
			if err != nil {
				t.Fatal(err)
			}
			if want := naryTruth(truth, n); !reflect.DeepEqual(res.Rows, want) {
				t.Fatalf("groupOn=%q par=%d: %d rows, want %d (exact conjunction)",
					groupOn, par, len(res.Rows), len(want))
			}
			if !res.Stats.Exact {
				t.Fatalf("wave answers are fully verified; Exact should be true: %+v", res.Stats)
			}
			if res.Stats.Evaluations >= 3*n {
				t.Fatalf("groupOn=%q par=%d: no short-circuit saving: %d evaluations (all-on-all = %d)",
					groupOn, par, res.Stats.Evaluations, 3*n)
			}
			if res.Stats.Sampled == 0 {
				t.Fatalf("approximate N-ary conjunction did not sample: %+v", res.Stats)
			}
		}
	}
}

// TestExecuteNaryConjunctionExact: without accuracy bounds the waves run in
// query order with no sampling, still short-circuiting.
func TestExecuteNaryConjunctionExact(t *testing.T) {
	const n = 900
	e, truth, goodCalls := newTestEngine(t, n)
	div3 := registerModUDF(t, e, "div3", 3)
	div5 := registerModUDF(t, e, "div5", 5)
	res, err := e.ExecuteContext(context.Background(), naryQuery(false, ""))
	if err != nil {
		t.Fatal(err)
	}
	if want := naryTruth(truth, n); !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows %d, want %d", len(res.Rows), len(want))
	}
	nTrue := 0
	for i := 0; i < n; i++ {
		if truth[int64(i)] {
			nTrue++
		}
	}
	nTrueDiv3 := 0
	for i := 0; i < n; i += 3 {
		if truth[int64(i)] {
			nTrueDiv3++
		}
	}
	// Wave sizes: every row, then good_credit survivors, then also-div3
	// survivors.
	if goodCalls.Load() != int64(n) || div3.Load() != int64(nTrue) || div5.Load() != int64(nTrueDiv3) {
		t.Fatalf("wave calls %d/%d/%d, want %d/%d/%d",
			goodCalls.Load(), div3.Load(), div5.Load(), n, nTrue, nTrueDiv3)
	}
	if !res.Stats.Exact || res.Stats.Retrievals != n {
		t.Fatalf("stats %+v", res.Stats)
	}
	if res.Stats.Sampled != 0 {
		t.Fatalf("exact conjunction sampled %d rows", res.Stats.Sampled)
	}
}

// TestExecuteNaryConjunctionDeterministic: same seed, same rows and stats
// at every parallelism level.
func TestExecuteNaryConjunctionDeterministic(t *testing.T) {
	run := func(par int) *Result {
		e, _, _ := newTestEngine(t, 1500)
		e.Parallelism = par
		registerModUDF(t, e, "div3", 3)
		registerModUDF(t, e, "div5", 5)
		res, err := e.ExecuteContext(context.Background(), naryQuery(true, "grade"))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("N-ary conjunction diverged across parallelism:\n%+v\n%+v", a, b)
	}
}

// TestNaryGreedyOrderingSaves: when the selective predicate comes last in
// query order, the sampled greedy ordering moves it first and beats the
// query-order wave cost.
func TestNaryGreedyOrderingSaves(t *testing.T) {
	const n = 3000
	newE := func() *Engine {
		e, _, _ := newTestEngine(t, n)
		// pass90/pass80 are wide; div30 passes ~3% — the query lists it last.
		if err := e.RegisterUDF(UDF{Name: "pass90", Body: pure(func(v table.Value) bool {
			return v.(int64)%10 != 0
		})}); err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterUDF(UDF{Name: "pass80", Body: pure(func(v table.Value) bool {
			return v.(int64)%5 != 0
		})}); err != nil {
			t.Fatal(err)
		}
		registerModUDF(t, e, "div30", 30)
		return e
	}
	q := Query{
		Table: "loans", Predicates: []Conjunct{
			{UDFName: "pass90", UDFArg: "id", Want: true},
			{UDFName: "pass80", UDFArg: "id", Want: true},
			{UDFName: "div30", UDFArg: "id", Want: true},
		},
	}
	exactQ := q
	exact, err := newE().ExecuteContext(context.Background(), exactQ)
	if err != nil {
		t.Fatal(err)
	}
	greedyQ := q
	greedyQ.Approx = approx(0.8, 0.8, 0.8)
	greedy, err := newE().ExecuteContext(context.Background(), greedyQ)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exact.Rows, greedy.Rows) {
		t.Fatalf("greedy order changed the answer: %d vs %d rows", len(greedy.Rows), len(exact.Rows))
	}
	// Query-order waves: 3000 + ~2700 + ~2160 ≈ 7860 evaluations. Greedy
	// puts div30 first: 3000 waves + ~100 + ~90, plus 3 predicates over the
	// sample — far fewer in total.
	if greedy.Stats.Evaluations >= exact.Stats.Evaluations {
		t.Fatalf("greedy ordering saved nothing: %d vs query-order %d",
			greedy.Stats.Evaluations, exact.Stats.Evaluations)
	}
}

// TestGreedyWavesSampledRowsFree pins what greedy conj-waves owes the rows
// of its joint sample: each is retrieved once (by the sample, never again by
// the waves) and evaluated once per predicate (by the sample, never again
// by a wave), while every other row is retrieved once and meets the first
// wave. The cross-query cache is off so every evaluation reaches a body.
func TestGreedyWavesSampledRowsFree(t *testing.T) {
	const n = 3000
	for _, groupOn := range []string{"", "grade"} {
		for _, par := range []int{1, 8} {
			e, truth, _ := newTestEngine(t, n)
			e.Parallelism, e.CacheUDFResults = par, false
			perRow := map[string][]atomic.Int32{}
			for name, pass := range map[string]func(int64) bool{
				"good_credit2": func(id int64) bool { return truth[id] },
				"div3":         func(id int64) bool { return id%3 == 0 },
				"div5":         func(id int64) bool { return id%5 == 0 },
			} {
				counts := make([]atomic.Int32, n)
				perRow[name] = counts
				if err := e.RegisterUDF(UDF{Name: name, Body: pure(func(v table.Value) bool {
					counts[v.(int64)].Add(1)
					return pass(v.(int64))
				})}); err != nil {
					t.Fatal(err)
				}
			}
			q := naryQuery(true, groupOn)
			q.Predicates[0].UDFName = "good_credit2"
			res, err := e.ExecuteContext(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if want := naryTruth(truth, n); !reflect.DeepEqual(res.Rows, want) {
				t.Fatalf("groupOn=%q par=%d: %d rows, want %d", groupOn, par, len(res.Rows), len(want))
			}
			s := res.Stats
			if s.Sampled == 0 || s.Sampled >= n {
				t.Fatalf("groupOn=%q par=%d: sampled %d of %d rows; the test needs a proper joint sample", groupOn, par, s.Sampled, n)
			}
			if want := s.Sampled + (n - s.Sampled); s.Retrievals != want {
				t.Fatalf("groupOn=%q par=%d: retrievals = %d, want %d sampled + %d unsampled",
					groupOn, par, s.Retrievals, s.Sampled, n-s.Sampled)
			}
			// Each predicate's calls are its sampled rows plus its wave's
			// unsampled rows, with no row twice: the first wave alone meets
			// every row, and the sampled rows meet all three predicates.
			total, full, allThree := 0, 0, 0
			for name, counts := range perRow {
				calls := 0
				for row := range counts {
					c := int(counts[row].Load())
					if c > 1 {
						t.Fatalf("groupOn=%q par=%d: %s evaluated row %d %d times", groupOn, par, name, row, c)
					}
					calls += c
				}
				total += calls
				if calls == n {
					full++
				}
			}
			for row := 0; row < n; row++ {
				if perRow["good_credit2"][row].Load()+perRow["div3"][row].Load()+perRow["div5"][row].Load() == 3 {
					allThree++
				}
			}
			if total != s.Evaluations || full != 1 || allThree < s.Sampled {
				t.Fatalf("groupOn=%q par=%d: %d body calls (stats %d), %d predicates met every row (want 1), %d rows met all three (want >= %d sampled)",
					groupOn, par, total, s.Evaluations, full, allThree, s.Sampled)
			}
		}
	}
}

// TestEvalBatchResolvesSampledRows pins the greedy terminal's per-batch
// bookkeeping: a jointly sampled row that passed every predicate is emitted
// unevaluated, one that failed is dropped unevaluated, neither counts as
// retrieved, and every other row runs the waves.
func TestEvalBatchResolvesSampledRows(t *testing.T) {
	var seen [2][]int
	meter := func(w int, pass func(int) bool) *core.Meter {
		return core.NewMeter(core.UDFFunc(func(row int) bool {
			seen[w] = append(seen[w], row)
			return pass(row)
		}))
	}
	o := &evalOp{
		waves:   core.Waves{Pool: exec.NewPool(1)},
		sampled: map[int]bool{1: true, 2: false, 5: true},
	}
	for pass := 0; pass < 2; pass++ { // the second pass reuses the scratch
		// Fresh meters: a meter remembers the outcomes it evaluated.
		o.waves.Meters = []*core.Meter{
			meter(0, func(row int) bool { return row != 3 }),
			meter(1, func(int) bool { return true }),
		}
		seen = [2][]int{}
		out, retrieved, err := o.evalBatch(context.Background(), []int{0, 1, 2, 3, 4, 5})
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{0, 1, 4, 5}; !reflect.DeepEqual(out, want) {
			t.Fatalf("pass %d: survivors %v, want %v", pass, out, want)
		}
		if retrieved != 3 {
			t.Fatalf("pass %d: retrieved %d, want 3 (rows 0, 3, 4)", pass, retrieved)
		}
		if want := [2][]int{{0, 3, 4}, {0, 4}}; !reflect.DeepEqual(seen, want) {
			t.Fatalf("pass %d: waves evaluated %v, want %v", pass, seen, want)
		}
	}
}

// TestNaryConjunctionValidation: N-ary specific shape rules.
func TestNaryConjunctionValidation(t *testing.T) {
	e, _, _ := newTestEngine(t, 90)
	registerModUDF(t, e, "div3", 3)
	registerModUDF(t, e, "div5", 5)
	q := naryQuery(true, VirtualColumn)
	if _, err := e.ExecuteContext(context.Background(), q); err == nil {
		t.Fatal("N-ary conjunction over the virtual column accepted")
	}
	q = naryQuery(true, "")
	q.Budget = 50
	if _, err := e.ExecuteContext(context.Background(), q); err == nil {
		t.Fatal("budget + conjunction accepted")
	}
	q = naryQuery(true, "")
	q.Predicates[2].UDFName = "missing"
	if _, err := e.ExecuteContext(context.Background(), q); err == nil {
		t.Fatal("unknown third UDF accepted")
	}
}

// TestExplainShapes exercises Engine.Explain across every shape the
// planner covers (content goldens live at the predeval layer).
func TestExplainShapes(t *testing.T) {
	e, _, _ := newTestEngine(t, 900)
	registerModUDF(t, e, "div3", 3)
	registerModUDF(t, e, "div5", 5)
	base := Query{Table: "loans", Predicates: []Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: true}}}
	cases := []struct {
		name string
		mut  func(Query) Query
		want string
	}{
		{"exact", func(q Query) Query { return q }, "exact-eval"},
		{"approx", func(q Query) Query { q.Approx = approx(0.9, 0.9, 0.9); return q }, "group-resolve[auto]"},
		{"pinned", func(q Query) Query { q.Approx = approx(0.9, 0.9, 0.9); q.GroupOn = "grade"; return q }, "group-resolve[pinned]"},
		{"budget", func(q Query) Query { q.Approx = approx(0.9, 0.9, 0.9); q.Budget = 100; return q }, "solve[budget]"},
		{"two-pred", func(q Query) Query {
			q.Approx = approx(0.9, 0.9, 0.9)
			q.GroupOn = "grade"
			q.Predicates = append(q.Predicates, Conjunct{UDFName: "div3", UDFArg: "id", Want: true})
			return q
		}, "conj-exec"},
		{"n-ary", func(q Query) Query {
			q.Approx = approx(0.9, 0.9, 0.9)
			q.Predicates = append(q.Predicates,
				Conjunct{UDFName: "div3", UDFArg: "id", Want: true},
				Conjunct{UDFName: "div5", UDFArg: "id", Want: true})
			return q
		}, "conj-waves[greedy]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			text, err := explain(e, tc.mut(base))
			if err != nil {
				t.Fatal(err)
			}
			if !containsLine(text, tc.want) {
				t.Fatalf("EXPLAIN missing %q:\n%s", tc.want, text)
			}
		})
	}
	if _, err := explain(e, Query{Table: "loans", Predicates: []Conjunct{{UDFName: "missing", UDFArg: "id"}}}); err == nil {
		t.Fatal("EXPLAIN of unknown UDF accepted")
	}
}

// explain renders the query's plan as EXPLAIN text.
func explain(e *Engine, q Query) (string, error) {
	chain, err := e.Plan(q)
	if err != nil {
		return "", err
	}
	return plan.Format(chain), nil
}

func containsLine(text, substr string) bool {
	for i := 0; i+len(substr) <= len(text); i++ {
		if text[i:i+len(substr)] == substr {
			return true
		}
	}
	return false
}

// TestSameUDFExactConjunctionSharesCache pins the legacy degenerate-exact
// behavior: the waves are sequential, so a duplicate predicate is served
// from the shared outcome cache instead of re-invoking the UDF.
func TestSameUDFExactConjunctionSharesCache(t *testing.T) {
	e, truth, calls := newTestEngine(t, 100)
	res, err := e.ExecuteContext(context.Background(), Query{
		Table: "loans", Predicates: []Conjunct{
			{UDFName: "good_credit", UDFArg: "id", Want: true},
			{UDFName: "good_credit", UDFArg: "id", Want: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	nTrue := 0
	for _, v := range truth {
		if v {
			nTrue++
		}
	}
	if len(res.Rows) != nTrue {
		t.Fatalf("%d rows, want %d", len(res.Rows), nTrue)
	}
	// Wave 1 invokes the body once per row; wave 2 is pure cache hits.
	if calls.Load() != 100 {
		t.Fatalf("UDF body invoked %d times, want 100", calls.Load())
	}
	if res.Stats.Evaluations != 100 {
		t.Fatalf("charged %d evaluations, want 100", res.Stats.Evaluations)
	}
	if res.Stats.CacheHits != nTrue {
		t.Fatalf("cache hits %d, want %d", res.Stats.CacheHits, nTrue)
	}
}

// TestExplainValidatesBindings: EXPLAIN rejects unresolvable join keys and
// pinned group columns just like execution would.
func TestExplainValidatesBindings(t *testing.T) {
	e, _, _ := newTestEngine(t, 90)
	base := Query{Table: "loans", Predicates: []Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: true}},
		Approx: approx(0.9, 0.9, 0.9), GroupOn: "grade"}
	q := base
	q.GroupOn = "nosuch"
	if _, err := explain(e, q); err == nil {
		t.Fatal("EXPLAIN with unknown GROUP ON column accepted")
	}
	q = base
	q.Join = &Join{Table: "loans", LeftKey: "nosuch", RightKey: "id"}
	if _, err := explain(e, q); err == nil {
		t.Fatal("EXPLAIN with unknown join key accepted")
	}
	q.Join = &Join{Table: "missing", LeftKey: "id", RightKey: "id"}
	if _, err := explain(e, q); err == nil {
		t.Fatal("EXPLAIN with unknown join table accepted")
	}
}

// TestNaryConjunctionPerPredicateCost: waves bill each predicate's charged
// calls at its own o_e, consistent with the costs the greedy ordering and
// EXPLAIN estimates use.
func TestNaryConjunctionPerPredicateCost(t *testing.T) {
	e, truth, _ := newTestEngine(t, 300)
	var cheapCalls, priceyCalls atomic.Int64
	if err := e.RegisterUDF(UDF{Name: "cheap", Cost: 1, Body: pure(func(v table.Value) bool {
		cheapCalls.Add(1)
		return v.(int64)%2 == 0
	})}); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterUDF(UDF{Name: "pricey", Cost: 50, Body: pure(func(v table.Value) bool {
		priceyCalls.Add(1)
		return v.(int64)%3 == 0
	})}); err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecuteContext(context.Background(), Query{
		Table: "loans", Predicates: []Conjunct{
			{UDFName: "good_credit", UDFArg: "id", Want: true},
			{UDFName: "cheap", UDFArg: "id", Want: true},
			{UDFName: "pricey", UDFArg: "id", Want: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = truth
	// good_credit has no override (default o_e = 3); o_r = 1 per scan row.
	want := float64(300)*1 + float64(300)*3 + float64(cheapCalls.Load())*1 + float64(priceyCalls.Load())*50
	if res.Stats.Cost != want {
		t.Fatalf("cost %v, want %v (cheap %d, pricey %d calls)",
			res.Stats.Cost, want, cheapCalls.Load(), priceyCalls.Load())
	}
}

// TestPredCostNoLeakFromFirstOverride: a first predicate's per-UDF cost
// override must not leak onto later conjuncts that have none (they price
// at the engine default).
func TestPredCostNoLeakFromFirstOverride(t *testing.T) {
	e, _, _ := newTestEngine(t, 300)
	var priceyCalls, cheapCalls atomic.Int64
	if err := e.RegisterUDF(UDF{Name: "pricey", Cost: 100, Body: pure(func(v table.Value) bool {
		priceyCalls.Add(1)
		return v.(int64)%2 == 0
	})}); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterUDF(UDF{Name: "cheapdef", Body: pure(func(v table.Value) bool {
		cheapCalls.Add(1)
		return v.(int64)%3 == 0
	})}); err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecuteContext(context.Background(), Query{
		Table: "loans", Predicates: []Conjunct{
			{UDFName: "pricey", UDFArg: "id", Want: true},
			{UDFName: "cheapdef", UDFArg: "id", Want: true},
			{UDFName: "good_credit", UDFArg: "id", Want: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	goodCalls := res.Stats.Evaluations - int(priceyCalls.Load()) - int(cheapCalls.Load())
	want := float64(300)*1 + float64(priceyCalls.Load())*100 +
		float64(cheapCalls.Load())*3 + float64(goodCalls)*3
	if res.Stats.Cost != want {
		t.Fatalf("cost %v, want %v (pricey %d, cheapdef %d, good %d calls)",
			res.Stats.Cost, want, priceyCalls.Load(), cheapCalls.Load(), goodCalls)
	}
}

// TestExplainRejectsBadProjection: EXPLAIN and execution accept/reject the
// same statements, including the projection columns.
func TestExplainRejectsBadProjection(t *testing.T) {
	e, _, _ := newTestEngine(t, 60)
	q := Query{Table: "loans", Predicates: []Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: true}},
		Columns: []string{"nosuchcol"}}
	if _, err := explain(e, q); err == nil {
		t.Fatal("EXPLAIN with unknown projection column accepted")
	}
	if _, err := e.ExecuteContext(context.Background(), q); err == nil {
		t.Fatal("execution with unknown projection column accepted")
	}
}
