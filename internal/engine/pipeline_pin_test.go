package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/plan"
)

// pinShapes are the nine statement shapes TestPlanIsPipeline runs, one per
// plan family: exact, grouped, discovered, budget, filtered, exact N-ary
// waves, §5, greedy N-ary waves and select-join.
func pinShapes() []struct {
	name string
	q    Query
} {
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
	return []struct {
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
}

// TestExecutorObservablesPinned pins what the statement executor shows the
// outside world, for every plan family run five ways at batch size 64 —
// materialized, streamed, streamed and stopped once 100 rows arrived,
// streamed and stopped after the first batch, and under EXPLAIN ANALYZE: the
// trace's span names with their counts (the names predbench keys its
// per-layer metrics by), the engine's batch counters, the Stats, the result
// rows, and the analyzed chain with its wall times zeroed. Parallelism 1 and
// 8 must both match the one golden. A change that means to move one of these
// deletes the golden and runs the test once, which writes it afresh and
// fails, and says which moved.
func TestExecutorObservablesPinned(t *testing.T) {
	var dump strings.Builder
	for _, par := range []int{1, 8} {
		var cur strings.Builder
		for _, shape := range pinShapes() {
			for _, mode := range []string{"materialized", "streamed", "stopped", "first", "analyzed"} {
				fmt.Fprintf(&cur, "== %s/%s\n", shape.name, mode)
				cur.WriteString(runPinCase(t, par, shape.q, mode))
			}
		}
		if par == 1 {
			dump.WriteString(cur.String())
		} else if cur.String() != dump.String() {
			t.Fatalf("parallelism %d diverges from parallelism 1:\n%s", par, firstDiff(dump.String(), cur.String()))
		}
	}
	path := filepath.Join("testdata", "pipeline_pin.golden")
	want, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if err := os.WriteFile(path, []byte(dump.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; check it and run again", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := dump.String(); got != string(want) {
		t.Fatalf("executor observables moved:\n%s", firstDiff(string(want), got))
	}
}

// runPinCase runs one shape one way on a fresh engine and renders what it
// showed.
func runPinCase(t *testing.T, par int, q Query, mode string) string {
	t.Helper()
	e, _, _ := newTestEngine(t, 900)
	e.Parallelism = par
	e.BatchSize = 64
	registerModUDF(t, e, "div3", 3)
	registerModUDF(t, e, "div5", 5)
	var ids []int64
	for i := 0; i < 2000; i++ {
		ids = append(ids, int64((i*7)%600))
	}
	ordersFor(t, e, ids)
	tr := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), tr)
	var rows []int
	var stats Stats
	var tree string
	var err error
	switch mode {
	case "materialized":
		var res *Result
		if res, err = e.ExecuteContext(ctx, q); err == nil {
			rows, stats = res.Rows, res.Stats
		}
	case "streamed", "stopped", "first":
		stats, err = e.ExecuteStreamContext(ctx, q, func(batch []int) error {
			rows = append(rows, batch...)
			if mode == "first" || mode == "stopped" && len(rows) >= 100 {
				return ErrStopStream
			}
			return nil
		})
	case "analyzed":
		var chain plan.Chain
		var res *Result
		if chain, res, err = e.ExplainAnalyzeContext(ctx, q); err == nil {
			rows, stats = res.Rows, res.Stats
			plan.ZeroTimings(chain)
			tree = plan.Format(chain)
		}
	}
	if err != nil {
		t.Fatalf("%s: %v", mode, err)
	}
	counts := make(map[string]int)
	for _, s := range tr.Spans() {
		counts[s.Name]++
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("spans:")
	for _, name := range names {
		fmt.Fprintf(&b, " %s=%d", name, counts[name])
	}
	inFlight, peak, total := e.BatchCounters()
	fmt.Fprintf(&b, "\nbatches: in-flight=%d peak=%d total=%d\n", inFlight, peak, total)
	fmt.Fprintf(&b, "stats: %+v\n", stats)
	fmt.Fprintf(&b, "rows: n=%d checksum=%#x\n", len(rows), rowsChecksum(rows))
	if tree != "" {
		b.WriteString(tree)
		if !strings.HasSuffix(tree, "\n") {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// firstDiff renders the first line where two dumps part, with the case
// header above it.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	header := ""
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if strings.HasPrefix(wl, "== ") && wl == gl {
			header = wl
		}
		if wl != gl {
			return fmt.Sprintf("%s\nline %d:\n want %q\n  got %q", header, i+1, wl, gl)
		}
	}
	return "identical"
}
