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
	return Query{Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true}
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
// skips the labeling pass (column memo) and its top-ups (seeded
// evidence): Sampled strictly shrinks and — because the cold run also ran
// an exact query — no UDF is ever invoked.
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
	if res2.Stats.Sampled >= res1.Stats.Sampled {
		t.Fatalf("warm Sampled %d not reduced from cold %d", res2.Stats.Sampled, res1.Stats.Sampled)
	}
	if calls2.Load() != 0 || res2.Stats.Evaluations != 0 {
		t.Fatalf("warm approx paid %d invocations / %d evaluations, want 0", calls2.Load(), res2.Stats.Evaluations)
	}
	if res2.Stats.ChosenColumn != res1.Stats.ChosenColumn {
		t.Fatalf("memoized column %q differs from discovered %q", res2.Stats.ChosenColumn, res1.Stats.ChosenColumn)
	}
	cc := e2.CatalogCounters()
	if cc.ColumnMemoHits != 1 {
		t.Fatalf("column memo hits %d, want 1", cc.ColumnMemoHits)
	}
	if cc.SeededRows == 0 {
		t.Fatal("no sampler rows were seeded from the catalog")
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
		Body: func(v table.Value) bool {
			calls2.Add(1)
			return !truth[v.(int64)]
		},
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
		Body: func(v table.Value) bool {
			calls3.Add(1)
			return !truth[v.(int64)]
		},
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
// leave synthetic verdicts in the durable catalog.
func TestCatalogFaultedQueryPersistsNothing(t *testing.T) {
	dir := t.TempDir()
	e, truth, _ := catalogEngine(t, 300, dir)
	err := e.RegisterUDF(UDF{
		Name: "flaky",
		Body: func(v table.Value) bool {
			if v.(int64) == 7 {
				panic("boom")
			}
			return truth[v.(int64)]
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Table: "loans", UDFName: "flaky", UDFArg: "id", Want: true, Approx: approx(0.8, 0.8, 0.8)}
	if _, err := e.ExecuteContext(context.Background(), q); err == nil {
		t.Fatal("faulting query succeeded")
	}
	if err := e.FlushCatalog(); err != nil {
		t.Fatal(err)
	}
	st := e.Catalog().Stats()
	if st.SampleRows != 0 {
		t.Fatalf("faulted query persisted %d sample rows", st.SampleRows)
	}
}

// TestCatalogSampleEvidenceKeyedByFilters: a filtered query's within-group
// sample is uniform only over the filtered rows, so its evidence must not
// warm-start a query with another filter set — in this process or after a
// restart — while a re-run of the same filtered query still seeds from it.
// (Keyed without the filter set, the unfiltered query below seeded all 166
// rows the filtered one sampled.)
func TestCatalogSampleEvidenceKeyedByFilters(t *testing.T) {
	dir := t.TempDir()
	unfiltered := approxQ()
	unfiltered.GroupOn = "grade"
	filtered := unfiltered
	filtered.Filters = []Filter{{Column: "purpose", Value: "car"}}
	// run executes q with the cross-query cache off and reports its sampled
	// and catalog-seeded row counts.
	run := func(e *Engine, q Query) (sampled, seeded int) {
		t.Helper()
		before := e.CatalogCounters().SeededRows
		res, err := e.ExecuteContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Sampled, int(e.CatalogCounters().SeededRows - before)
	}
	e, _, _ := catalogEngine(t, 3000, dir)
	e.CacheUDFResults = false
	if sampled, seeded := run(e, filtered); sampled == 0 || seeded != 0 {
		t.Fatalf("cold filtered query: sampled %d, seeded %d; want a sample and no seeds", sampled, seeded)
	}
	sampledU, seeded := run(e, unfiltered)
	if seeded != 0 {
		t.Fatalf("unfiltered query seeded %d rows from the filtered query's sample", seeded)
	}
	if _, seeded := run(e, filtered); seeded == 0 {
		t.Fatal("re-run filtered query seeded nothing from its own sample")
	}
	if err := e.CloseCatalog(); err != nil {
		t.Fatal(err)
	}

	e2, _, _ := catalogEngine(t, 3000, dir)
	e2.CacheUDFResults = false
	if _, seeded := run(e2, unfiltered); seeded != sampledU {
		t.Fatalf("after restart the unfiltered query seeded %d rows, want its own %d", seeded, sampledU)
	}
	if _, seeded := run(e2, filtered); seeded == 0 {
		t.Fatal("after restart the filtered query seeded nothing from its own sample")
	}
}
