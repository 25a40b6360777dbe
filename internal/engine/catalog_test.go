package engine

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/table"
)

// catalogEngine is newTestEngine plus an attached catalog in dir. The
// table and truth are reproducible, so successive engines simulate
// process restarts over the same data.
func catalogEngine(t testing.TB, n int, dir string) (*Engine, map[int64]bool, *atomic.Int64) {
	t.Helper()
	e, truth, calls := newTestEngine(t, n)
	c, err := catalog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	e.SetCatalog(c)
	return e, truth, calls
}

func exactQ() Query {
	return Query{Table: "loans", Predicates: []Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: true}}}
}

func approxQ() Query {
	q := exactQ()
	q.Approx = approx(0.8, 0.8, 0.8)
	return q
}

// TestCatalogWarmRestartExact: a repeated exact workload after a restart
// runs with zero UDF invocations and identical output.
func TestCatalogWarmRestartExact(t *testing.T) {
	dir := t.TempDir()
	e1, _, calls1 := catalogEngine(t, 600, dir)
	res1, err := e1.ExecuteContext(context.Background(), exactQ())
	if err != nil {
		t.Fatal(err)
	}
	if calls1.Load() != 600 {
		t.Fatalf("cold run invoked %d bodies, want 600", calls1.Load())
	}
	if err := e1.CloseCatalog(); err != nil {
		t.Fatal(err)
	}

	e2, _, calls2 := catalogEngine(t, 600, dir)
	res2, err := e2.ExecuteContext(context.Background(), exactQ())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1.Rows, res2.Rows) {
		t.Fatalf("warm restart changed the exact answer: %d vs %d rows", len(res1.Rows), len(res2.Rows))
	}
	if calls2.Load() != 0 || res2.Stats.Evaluations != 0 {
		t.Fatalf("warm restart paid %d invocations / %d evaluations, want 0", calls2.Load(), res2.Stats.Evaluations)
	}
	if res2.Stats.CacheHits != 600 || res2.Stats.CacheMisses != 0 {
		t.Fatalf("warm stats hits=%d misses=%d, want 600/0", res2.Stats.CacheHits, res2.Stats.CacheMisses)
	}
	if hits, misses := e2.CacheCounters(); hits != 600 || misses != 0 {
		t.Fatalf("engine counters hits=%d misses=%d, want 600/0", hits, misses)
	}
}

// TestCatalogWarmRestartApprox: after a restart the approximate workload
// skips the labeling pass (column memo), so Sampled strictly shrinks, but
// still draws its own sample: it returns the cold run's rows, and —
// because the cold run also ran an exact query — no UDF is ever invoked.
func TestCatalogWarmRestartApprox(t *testing.T) {
	dir := t.TempDir()
	e1, _, _ := catalogEngine(t, 600, dir)
	if _, err := e1.ExecuteContext(context.Background(), exactQ()); err != nil {
		t.Fatal(err)
	}
	res1, err := e1.ExecuteContext(context.Background(), approxQ())
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.Sampled == 0 {
		t.Fatal("cold approximate run sampled nothing")
	}
	if err := e1.CloseCatalog(); err != nil {
		t.Fatal(err)
	}

	e2, _, calls2 := catalogEngine(t, 600, dir)
	res2, err := e2.ExecuteContext(context.Background(), approxQ())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2.Rows, res1.Rows) {
		t.Fatalf("warm restart changed the approximate answer: %d vs %d rows", len(res2.Rows), len(res1.Rows))
	}
	if res2.Stats.Sampled == 0 || res2.Stats.Sampled >= res1.Stats.Sampled {
		t.Fatalf("warm Sampled %d, want its own draw without the cold run's labels (cold %d)", res2.Stats.Sampled, res1.Stats.Sampled)
	}
	if calls2.Load() != 0 || res2.Stats.Evaluations != 0 {
		t.Fatalf("warm approx paid %d invocations / %d evaluations, want 0", calls2.Load(), res2.Stats.Evaluations)
	}
	if res2.Stats.ChosenColumn != res1.Stats.ChosenColumn {
		t.Fatalf("memoized column %q differs from discovered %q", res2.Stats.ChosenColumn, res1.Stats.ChosenColumn)
	}
	if cc := e2.CatalogCounters(); cc.ColumnMemoHits != 1 {
		t.Fatalf("column memo hits %d, want 1", cc.ColumnMemoHits)
	}
}

// TestCatalogReRegisterInvalidates is the regression test for the
// re-registration contract: replacing a UDF body drops persisted verdicts
// (durably) as well as the in-memory cache, so a changed body can never
// serve stale outcomes — in this process or after another restart.
func TestCatalogReRegisterInvalidates(t *testing.T) {
	dir := t.TempDir()
	e1, truth, _ := catalogEngine(t, 300, dir)
	res1, err := e1.ExecuteContext(context.Background(), exactQ())
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.FlushCatalog(); err != nil {
		t.Fatal(err)
	}

	// Replace the body with its negation. The old verdicts must die.
	var calls2 atomic.Int64
	err = e1.RegisterUDF(UDF{
		Name: "good_credit",
		Body: pure(func(v table.Value) bool {
			calls2.Add(1)
			return !truth[v.(int64)]
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := e1.Catalog().Stats(); st.OutcomeRows != 0 {
		t.Fatalf("persisted verdicts survived re-registration: %+v", st)
	}
	res2, err := e1.ExecuteContext(context.Background(), exactQ())
	if err != nil {
		t.Fatal(err)
	}
	if calls2.Load() != 300 {
		t.Fatalf("re-registered body invoked %d times, want 300 (stale verdicts served)", calls2.Load())
	}
	if len(res1.Rows)+len(res2.Rows) != 300 {
		t.Fatalf("negated predicate rows %d + %d != 300", len(res1.Rows), len(res2.Rows))
	}
	if err := e1.CloseCatalog(); err != nil {
		t.Fatal(err)
	}

	// A fresh process registering the NEW body first-time must inherit the
	// new verdicts, not the old ones.
	e2, _, _ := newTestEngine(t, 300)
	// newTestEngine registered the original body; replace with negation
	// BEFORE attaching the catalog (first process life for this catalog).
	var calls3 atomic.Int64
	err = e2.RegisterUDF(UDF{
		Name: "good_credit",
		Body: pure(func(v table.Value) bool {
			calls3.Add(1)
			return !truth[v.(int64)]
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := catalog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e2.SetCatalog(c)
	res3, err := e2.ExecuteContext(context.Background(), exactQ())
	if err != nil {
		t.Fatal(err)
	}
	if calls3.Load() != 0 {
		t.Fatalf("restart re-paid %d invocations for re-registered body", calls3.Load())
	}
	if !reflect.DeepEqual(res2.Rows, res3.Rows) {
		t.Fatal("restart served different rows than the re-registered body computed")
	}
}

// TestCatalogCacheCountersColdRun: without a catalog the counters still
// work — second identical query is served fully from the in-process
// cross-query cache.
func TestCatalogCacheCountersColdRun(t *testing.T) {
	e, _, _ := newTestEngine(t, 300)
	res1, err := e.ExecuteContext(context.Background(), exactQ())
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.CacheHits != 0 || res1.Stats.CacheMisses != 300 {
		t.Fatalf("cold stats hits=%d misses=%d, want 0/300", res1.Stats.CacheHits, res1.Stats.CacheMisses)
	}
	res2, err := e.ExecuteContext(context.Background(), exactQ())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.CacheHits != 300 || res2.Stats.CacheMisses != 0 {
		t.Fatalf("warm stats hits=%d misses=%d, want 300/0", res2.Stats.CacheHits, res2.Stats.CacheMisses)
	}
	if hits, misses := e.CacheCounters(); hits != 300 || misses != 300 {
		t.Fatalf("engine counters hits=%d misses=%d, want 300/300", hits, misses)
	}
}

// TestCatalogFaultedQueryPersistsNothing: a panicking UDF body must not
// leave a synthetic verdict or a column memo in the durable catalog. The
// body panics on the first row it sees, which every plan evaluates, so the
// fault does not depend on which rows the plan picks. The verdicts the
// other rows paid for are genuine and may persist.
func TestCatalogFaultedQueryPersistsNothing(t *testing.T) {
	dir := t.TempDir()
	e, truth, _ := catalogEngine(t, 300, dir)
	var faulted atomic.Bool
	var faultedRow atomic.Int64
	err := e.RegisterUDF(UDF{
		Name: "flaky",
		Body: pure(func(v table.Value) bool {
			if faulted.CompareAndSwap(false, true) {
				faultedRow.Store(v.(int64))
				panic("boom")
			}
			return truth[v.(int64)]
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Table: "loans", Predicates: []Conjunct{{UDFName: "flaky", UDFArg: "id", Want: true}}, Approx: approx(0.8, 0.8, 0.8)}
	if _, err := e.ExecuteContext(context.Background(), q); err == nil {
		t.Fatal("faulting query succeeded")
	}
	if err := e.FlushCatalog(); err != nil {
		t.Fatal(err)
	}
	if st := e.Catalog().Stats(); st.ColumnMemos != 0 {
		t.Fatalf("faulted query persisted %d column memos", st.ColumnMemos)
	}
	for row, v := range e.Catalog().Outcomes(catalog.OutcomeKey{Table: "loans", UDF: "flaky", Column: "id"}) {
		if int64(row) == faultedRow.Load() || v != truth[int64(row)] {
			t.Fatalf("faulted query persisted verdict %t for row %d (the faulted row is %d)", v, row, faultedRow.Load())
		}
	}
}

// TestCatalogKeysStable pins the §4.4 memo's workload key byte for byte,
// for four statements, as earlier builds wrote it. A key that drifts
// orphans every memo already on disk, silently: the catalog only stops
// hitting.
func TestCatalogKeysStable(t *testing.T) {
	e, _, _ := newTestEngine(t, 30)
	pred := func(want bool) []Conjunct { return []Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: want}} }
	for _, c := range []struct {
		name     string
		q        Query
		workload string
	}{
		{"unfiltered", Query{Table: "loans", Predicates: pred(true)},
			"v1\x1floans\x1fgood_credit\x1fid\x1fwant=true\x1fcost=1,3"},
		{"filters in reverse order", Query{Table: "loans", Predicates: pred(true), Approx: approx(0.9, 0.9, 0.9),
			Filters: []Filter{{Column: "purpose", Value: "car"}, {Column: "grade", Value: "A"}}},
			"v1\x1floans\x1fgood_credit\x1fid\x1fwant=true\x1fcost=1,3\x1fapr=0.9,0.9,0.9\x1fflt=grade=A&purpose=car"},
		{"want zero", Query{Table: "loans", Predicates: pred(false), Approx: approx(0.9, 0.9, 0.9)},
			"v1\x1floans\x1fgood_credit\x1fid\x1fwant=false\x1fcost=1,3\x1fapr=0.9,0.9,0.9"},
		{"approximate grouped", Query{Table: "loans", Predicates: pred(true), Approx: approx(0.8, 0.7, 0.95), GroupOn: "grade"},
			"v1\x1floans\x1fgood_credit\x1fid\x1fwant=true\x1fcost=1,3\x1fapr=0.8,0.7,0.95"},
	} {
		st, err := e.bindStatement(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if got := workloadKey(st); got != c.workload {
			t.Errorf("%s: workload key %q, want %q", c.name, got, c.workload)
		}
	}
}

// TestConjunctionsPersistNoSampleEvidence: neither the §5 plan nor the
// greedy N-ary waves persist their sample or a column memo — only the
// verdicts their meters cached, as outcomes.
func TestConjunctionsPersistNoSampleEvidence(t *testing.T) {
	e, _, _ := catalogEngine(t, 3000, t.TempDir())
	registerModUDF(t, e, "div3", 3)
	registerModUDF(t, e, "div5", 5)
	twoPred := naryQuery(true, "grade")
	twoPred.Predicates = twoPred.Predicates[:2]
	for _, q := range []Query{twoPred, naryQuery(true, "")} {
		res, err := e.ExecuteContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Sampled == 0 {
			t.Fatalf("%d-predicate statement did not sample: %+v", len(q.Predicates), res.Stats)
		}
	}
	if err := e.FlushCatalog(); err != nil {
		t.Fatal(err)
	}
	st := e.Catalog().Stats()
	if st.ColumnMemos != 0 {
		t.Fatalf("conjunctions persisted %d column memos, want none", st.ColumnMemos)
	}
	if st.OutcomeRows == 0 {
		t.Fatal("the flush persisted no outcomes either: nothing was checked")
	}
}
