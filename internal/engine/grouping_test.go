package engine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/stats"
	"repro/internal/table"
)

// pinned is an answer captured by running the same test body at commit
// 8cd01ae, where every grouping rendered each cell into a map of strings,
// and re-captured when the draws became keyed per row (stats.Key).
// table.Partition must reproduce it bit for bit: the same groups mean the
// same sample, plan and rows.
type pinned struct {
	rows  int
	hash  uint64
	stats Stats
}

func (want pinned) check(t *testing.T, name string, res *Result) {
	t.Helper()
	if len(res.Rows) != want.rows || rowsChecksum(res.Rows) != want.hash {
		t.Errorf("%s: got %d rows (hash %#x), want %d (hash %#x)",
			name, len(res.Rows), rowsChecksum(res.Rows), want.rows, want.hash)
	}
	if res.Stats != want.stats {
		t.Errorf("%s: stats %+v, want %+v", name, res.Stats, want.stats)
	}
}

// shopsEngine builds a table whose city column has 200 distinct values —
// four of them in region 'north', 196 elsewhere — so city is far over
// maxCandidateCardinality on the whole table and well under it inside the
// filter region = 'north', where it is also the column the UDF follows.
func shopsEngine(t *testing.T) *Engine {
	t.Helper()
	rng := stats.NewRNG(5)
	tbl := table.New("shops", table.MustSchema(
		table.ColumnDef{Name: "id", Type: table.Int},
		table.ColumnDef{Name: "region", Type: table.String},
		table.ColumnDef{Name: "city", Type: table.String},
		table.ColumnDef{Name: "tier", Type: table.Int},
		table.ColumnDef{Name: "amount", Type: table.Float},
	))
	truth := make(map[int64]bool)
	sels := []float64{0.9, 0.6, 0.3, 0.05}
	for i := 0; i < 3000; i++ {
		region, city := "north", fmt.Sprintf("n%d", (i/5)%4)
		if i%5 != 0 {
			region, city = []string{"south", "east", "west"}[i%3], fmt.Sprintf("t%03d", rng.IntN(196))
		} else {
			truth[int64(i)] = rng.Bernoulli(sels[(i/5)%4])
		}
		if err := tbl.AppendRow(int64(i), region, city, int64(rng.IntN(3)), rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	e := New(11)
	if err := e.RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterUDF(UDF{Name: "open_late", Body: pure(func(v table.Value) bool { return truth[v.(int64)] })}); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDiscoveryCapCountsValuesInsideFilter is the trap in "reject on
// dictionary size": the cap is on the values live in the statement's row
// universe. Cold, city must still be a discovery candidate (and win); warm,
// the memoized city must still be a memo hit.
func TestDiscoveryCapCountsValuesInsideFilter(t *testing.T) {
	q := Query{
		Table: "shops", Predicates: []Conjunct{{UDFName: "open_late", UDFArg: "id", Want: true}},
		Filters: []Filter{{Column: "region", Value: "north"}},
		Approx:  approx(0.8, 0.8, 0.8),
	}
	cold := pinned{300, 0xe2b98c3561603bcb, Stats{
		Evaluations: 207, Retrievals: 416, Sampled: 162, Cost: 1037, ChosenColumn: "city", CacheMisses: 207,
	}}
	warm := pinned{300, 0xe2b98c3561603bcb, Stats{
		Retrievals: 398, Sampled: 144, Cost: 398, ChosenColumn: "city", CacheHits: 193,
	}}

	dir := t.TempDir()
	for i, want := range []pinned{cold, warm} {
		e := shopsEngine(t)
		c, err := catalog.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		e.SetCatalog(c)
		res, err := e.ExecuteContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ChosenColumn != "city" {
			t.Fatalf("run %d grouped on %q, want city", i, res.Stats.ChosenColumn)
		}
		if hits := e.CatalogCounters().ColumnMemoHits; hits != int64(i) {
			t.Fatalf("run %d: %d column memo hits, want %d", i, hits, i)
		}
		want.check(t, fmt.Sprintf("run %d", i), res)
		if err := e.CloseCatalog(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDiscoveryLabelsWholeSmallTable: on a table this small the only
// candidate (6 values) passes the √|labeled| rule only once 36 of the 38
// rows are labeled. The retry loop used to double 0.64 to 1.28 and give up;
// it now ends with one attempt over the whole universe, which qualifies the
// column.
func TestDiscoveryLabelsWholeSmallTable(t *testing.T) {
	tbl := table.New("tiny", table.MustSchema(
		table.ColumnDef{Name: "id", Type: table.Int},
		table.ColumnDef{Name: "kind", Type: table.String},
	))
	for i := 0; i < 38; i++ {
		if err := tbl.AppendRow(int64(i), fmt.Sprintf("k%d", i%6)); err != nil {
			t.Fatal(err)
		}
	}
	e := New(3)
	if err := e.RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterUDF(UDF{Name: "f", Body: pure(func(v table.Value) bool { return v.(int64)%6 < 3 })}); err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecuteContext(context.Background(), Query{
		Table: "tiny", Predicates: []Conjunct{{UDFName: "f", UDFArg: "id", Want: true}}, Approx: approx(0.8, 0.8, 0.8),
	})
	if err != nil {
		t.Fatalf("discovery must end by labeling the whole table: %v", err)
	}
	if res.Stats.ChosenColumn != "kind" || res.Stats.Evaluations != 38 {
		t.Fatalf("stats %+v, want kind chosen with all 38 rows labeled", res.Stats)
	}
	for _, row := range res.Rows {
		if row%6 >= 3 {
			t.Fatalf("row %d returned though every row was labeled and it is negative", row)
		}
	}
}

// TestVirtualColumnLabelsBothClasses: §6.3.2's regression learns nothing
// from labels of one class, so the virtual column labels on, in §4.4's
// doubling rounds, until a pass and a fail are both labeled. The UDF passes
// the 40 rows of tier "x" among 2,000 (2 %); at engine seed 7 the first
// statement's 1 % draw (20 labels) holds none of them. Trained on both
// classes, the regression gives tier "x" a group of its own.
func TestVirtualColumnLabelsBothClasses(t *testing.T) {
	const n = 2000
	tbl := table.New("accounts", table.MustSchema(
		table.ColumnDef{Name: "id", Type: table.Int},
		table.ColumnDef{Name: "tier", Type: table.String},
	))
	for i := 0; i < n; i++ {
		tier := []string{"a", "b", "c"}[i%3]
		if i%50 == 7 {
			tier = "x"
		}
		if err := tbl.AppendRow(int64(i), tier); err != nil {
			t.Fatal(err)
		}
	}
	e := New(7)
	if err := e.RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterUDF(UDF{Name: "rare", Body: pure(func(v table.Value) bool { return v.(int64)%50 == 7 })}); err != nil {
		t.Fatal(err)
	}
	st, err := e.bindStatement(Query{
		Table: "accounts", Predicates: []Conjunct{{UDFName: "rare", UDFArg: "id", Want: true}},
		Approx: approx(0.8, 0.8, 0.8), GroupOn: VirtualColumn,
	})
	if err != nil {
		t.Fatal(err)
	}
	st.key = stats.Key(7).Sub(0) // the engine's first approximate statement
	ctx := context.Background()
	first, _ := e.labeler(st)
	if _, err := first.TopUpCtx(ctx, []int{20}); err != nil {
		t.Fatal(err)
	}
	for row, pass := range first.Outcomes()[0].Results {
		if pass {
			t.Fatalf("the 1 %% draw labels row %d, a pass: the fixture no longer starts from one class", row)
		}
	}

	groups, _, labeled, err := e.virtualColumn(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	if labeled <= 20 {
		t.Fatalf("labeled %d rows, all of one class: want labeling to go on until both appear", labeled)
	}
	for _, g := range groups {
		tierX := len(g.Rows) == n/50
		for _, row := range g.Rows {
			tierX = tierX && row%50 == 7
		}
		if tierX {
			return
		}
	}
	t.Fatalf("no group holds exactly the %d rows of tier x: %d groups", n/50, len(groups))
}
