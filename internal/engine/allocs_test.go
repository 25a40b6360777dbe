//go:build !race

package engine

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/plan"
	"repro/internal/resilience"
	"repro/internal/table"
)

// TestGroupResolveAllocs pins §4.4 candidate enumeration — the whole of
// discovery's grouping work — at O(columns + groups) allocations whatever
// the row count: census has four key-like float columns (abandoned at their
// 51st value) and two predictor columns (counting sort over their codes).
// Rendering every cell into a map of strings cost ≈ 12 allocations per row.
// The race detector changes allocation counts, so this runs in the non-race
// CI step.
func TestGroupResolveAllocs(t *testing.T) {
	for _, scale := range []float64{0.1, 0.4} {
		d, err := dataset.Generate(dataset.Census.Scaled(scale), 1)
		if err != nil {
			t.Fatal(err)
		}
		st := &pipeState{tbl: d.Table, preds: []resolvedPred{{spec: Conjunct{UDFArg: "id"}}}}
		var cands int
		allocs := testing.AllocsPerRun(5, func() { cands = len(candidateColumns(st)) })
		if cands != 2 {
			t.Fatalf("%d candidate columns over census, want 2", cands)
		}
		if allocs > 50 {
			t.Fatalf("candidate enumeration over %d rows allocated %v times, want at most 50", d.Table.NumRows(), allocs)
		}
	}
}

// TestRowInvokerAllocs pins one invocation — retry loop, attempt closure,
// panic guard, cell fetch, body — at the one allocation the UDF ABI
// forces: boxing the cell into a table.Value. An int64 below 256 boxes
// into the runtime's static cells, so it allocates nothing.
func TestRowInvokerAllocs(t *testing.T) {
	tbl, truth := buildLoanTable(t, 300, 42)
	body := pure(func(v table.Value) bool { return truth[v.(int64)] })
	inv := newRowInvoker("good_credit", body, tbl.ColumnByName("id"), true, resilience.Policy{}, 1)
	ctx := context.Background()
	for _, c := range []struct {
		row  int
		want float64
	}{{299, 1}, {17, 0}} {
		allocs := testing.AllocsPerRun(1000, func() {
			if v, err := inv.EvalErr(ctx, c.row); err != nil || v != truth[int64(c.row)] {
				t.Fatalf("EvalErr(%d) = (%v, %v)", c.row, v, err)
			}
		})
		if allocs != c.want {
			t.Errorf("EvalErr on id %d allocated %v times, want %v", c.row, allocs, c.want)
		}
	}
}

// TestStreamingTerminalAllocs pins one 1,024-row batch through the
// streaming terminal at parallelism 1 — exact-eval, and a two-predicate
// conj-waves — at 37 and 54 allocations per statement. The runs are warm,
// so the cross-query cache answers every row and no UDF body boxes a cell:
// what remains is the statement's fixed cost plus the terminal's scratch,
// which core.Waves sizes once, so scratch grown by append shows here.
func TestStreamingTerminalAllocs(t *testing.T) {
	tbl, truth := buildLoanTable(t, DefaultBatchSize, 42)
	e := New(7)
	e.Parallelism = 1
	if err := e.RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
	for _, u := range []UDF{
		{Name: "good_credit", Body: pure(func(v table.Value) bool { return truth[v.(int64)] })},
		{Name: "even", Body: pure(func(v table.Value) bool { return v.(int64)%2 == 0 })},
	} {
		if err := e.RegisterUDF(u); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	good := Conjunct{UDFName: "good_credit", UDFArg: "id", Want: true}
	even := Conjunct{UDFName: "even", UDFArg: "id", Want: true}
	for _, c := range []struct {
		op    plan.Op
		preds []Conjunct
		max   float64
	}{
		{plan.OpExactEval, []Conjunct{good}, 37},
		{plan.OpConjWaves, []Conjunct{good, even}, 54},
	} {
		q := Query{Table: "loans", Predicates: c.preds}
		if chain, err := e.Plan(q); err != nil || chain[len(chain)-1].Op != c.op {
			t.Fatalf("%v plans as %v (%v)", c.preds, plan.Format(chain), err)
		}
		run := func() {
			if _, err := e.ExecuteContext(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
		run() // fill the cross-query caches
		allocs := testing.AllocsPerRun(20, run)
		if allocs > c.max {
			t.Errorf("%s: one %d-row batch allocated %v times, want at most %v", c.op, DefaultBatchSize, allocs, c.max)
		}
	}
}

// TestWarmFlushAllocs pins the first flush after a warm start at O(1)
// allocation when the statements learned nothing new: the caches the
// catalog preloaded are at their flush watermark, so FlushCatalog skips
// them instead of snapshotting every verdict into a map only to diff it
// against the catalog's own copy and find nothing to write.
func TestWarmFlushAllocs(t *testing.T) {
	const n = 12000
	tbl, truth := buildLoanTable(t, n, 42)
	dir := t.TempDir()
	q := Query{Table: "loans", Predicates: []Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: true}}}
	open := func() *Engine {
		e := New(7)
		if err := e.RegisterTable(tbl); err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterUDF(UDF{Name: "good_credit", Body: pure(func(v table.Value) bool { return truth[v.(int64)] })}); err != nil {
			t.Fatal(err)
		}
		c, err := catalog.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		e.SetCatalog(c)
		return e
	}
	cold := open()
	if _, err := cold.ExecuteContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if err := cold.CloseCatalog(); err != nil {
		t.Fatal(err)
	}

	warm := open()
	defer warm.CloseCatalog()
	res, err := warm.ExecuteContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Evaluations != 0 || res.Stats.CacheHits != n {
		t.Fatalf("warm statement: %d evaluations, %d cache hits; want 0 and %d", res.Stats.Evaluations, res.Stats.CacheHits, n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = warm.FlushCatalog()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	// A snapshot of 12,000 verdicts is ~100 KiB in a few dozen mallocs; the
	// flush itself sorts one key.
	if allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; allocs > 8 || bytes > 1024 {
		t.Errorf("first flush of an engine warm-started with %d verdicts allocated %d times, %d bytes; want at most 8 and 1 KiB", n, allocs, bytes)
	}
}
