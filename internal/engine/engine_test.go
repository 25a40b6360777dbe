package engine

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/table"
)

// buildLoanTable creates a small table where good_credit(id) correlates
// strongly with the grade column: grade A → 90%, B → 50%, C → 10%.
func buildLoanTable(t testing.TB, n int, seed uint64) (*table.Table, map[int64]bool) {
	t.Helper()
	rng := stats.NewRNG(seed)
	schema := table.MustSchema(
		table.ColumnDef{Name: "id", Type: table.Int},
		table.ColumnDef{Name: "grade", Type: table.String},
		table.ColumnDef{Name: "income", Type: table.Float},
		table.ColumnDef{Name: "purpose", Type: table.String},
	)
	tbl := table.New("loans", schema)
	truth := make(map[int64]bool, n)
	grades := []string{"A", "B", "C"}
	sels := []float64{0.9, 0.5, 0.1}
	for i := 0; i < n; i++ {
		g := i % 3
		id := int64(i)
		label := rng.Bernoulli(sels[g])
		truth[id] = label
		inc := 30000 + rng.Float64()*90000
		if label {
			inc += 20000
		}
		purpose := []string{"car", "home", "debt", "other"}[rng.IntN(4)]
		if err := tbl.AppendRow(id, grades[g], inc, purpose); err != nil {
			t.Fatal(err)
		}
	}
	return tbl, truth
}

func newTestEngine(t testing.TB, n int) (*Engine, map[int64]bool, *atomic.Int64) {
	t.Helper()
	tbl, truth := buildLoanTable(t, n, 42)
	e := New(7)
	if err := e.RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
	// Atomic: UDF bodies may run concurrently when Parallelism > 1.
	calls := new(atomic.Int64)
	err := e.RegisterUDF(UDF{
		Name: "good_credit",
		Body: func(v table.Value) bool {
			calls.Add(1)
			return truth[v.(int64)]
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, truth, calls
}

func approx(alpha, beta, rho float64) *Approx {
	return &Approx{Precision: alpha, Recall: beta, Probability: rho}
}

func TestExecuteExact(t *testing.T) {
	e, truth, calls := newTestEngine(t, 900)
	res, err := e.ExecuteContext(context.Background(), Query{Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Exact {
		t.Fatal("expected exact execution")
	}
	if calls.Load() != 900 || res.Stats.Evaluations != 900 {
		t.Fatalf("exact evaluated %d/%d, want 900", calls.Load(), res.Stats.Evaluations)
	}
	wantCount := 0
	for _, v := range truth {
		if v {
			wantCount++
		}
	}
	if len(res.Rows) != wantCount {
		t.Fatalf("exact output %d rows, want %d", len(res.Rows), wantCount)
	}
}

func TestExecuteApproxPinnedColumn(t *testing.T) {
	e, truth, _ := newTestEngine(t, 3000)
	res, err := e.ExecuteContext(context.Background(), Query{
		Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true,
		Approx: approx(0.8, 0.8, 0.8), GroupOn: "grade",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ChosenColumn != "grade" {
		t.Fatalf("chosen column %q", res.Stats.ChosenColumn)
	}
	if res.Stats.Evaluations >= 3000 {
		t.Fatalf("approx run evaluated everything (%d)", res.Stats.Evaluations)
	}
	// Verify metrics against ground truth.
	totalCorrect := 0
	for _, v := range truth {
		if v {
			totalCorrect++
		}
	}
	correct := 0
	for _, row := range res.Rows {
		if truth[int64(row)] {
			correct++
		}
	}
	prec := float64(correct) / float64(len(res.Rows))
	recall := float64(correct) / float64(totalCorrect)
	if prec < 0.7 || recall < 0.7 {
		t.Fatalf("metrics collapsed: precision %v recall %v", prec, recall)
	}
}

func TestExecuteApproxDiscoversColumn(t *testing.T) {
	e, _, _ := newTestEngine(t, 3000)
	res, err := e.ExecuteContext(context.Background(), Query{
		Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true,
		Approx: approx(0.8, 0.8, 0.8),
	})
	if err != nil {
		t.Fatal(err)
	}
	// grade is the only informative low-cardinality column; purpose is
	// noise. The scan must pick grade.
	if res.Stats.ChosenColumn != "grade" {
		t.Fatalf("discovered column %q, want grade", res.Stats.ChosenColumn)
	}
	if res.Stats.Evaluations >= 3000 {
		t.Fatalf("no savings: %d evaluations", res.Stats.Evaluations)
	}
}

func TestExecuteApproxVirtualColumn(t *testing.T) {
	e, truth, _ := newTestEngine(t, 3000)
	res, err := e.ExecuteContext(context.Background(), Query{
		Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true,
		Approx: approx(0.8, 0.8, 0.8), GroupOn: VirtualColumn,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ChosenColumn != VirtualColumn {
		t.Fatalf("chosen column %q", res.Stats.ChosenColumn)
	}
	totalCorrect := 0
	for _, v := range truth {
		if v {
			totalCorrect++
		}
	}
	correct := 0
	for _, row := range res.Rows {
		if truth[int64(row)] {
			correct++
		}
	}
	if len(res.Rows) == 0 {
		t.Fatal("virtual column produced empty output")
	}
	prec := float64(correct) / float64(len(res.Rows))
	recall := float64(correct) / float64(totalCorrect)
	if prec < 0.65 || recall < 0.65 {
		t.Fatalf("virtual column metrics: precision %v recall %v", prec, recall)
	}
}

func TestExecuteWantFalse(t *testing.T) {
	e, truth, _ := newTestEngine(t, 900)
	res, err := e.ExecuteContext(context.Background(), Query{Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: false})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if truth[int64(row)] {
			t.Fatalf("want-false output contains true row %d", row)
		}
	}
}

func TestExecuteBudget(t *testing.T) {
	e, _, _ := newTestEngine(t, 3000)
	res, err := e.ExecuteContext(context.Background(), Query{
		Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true,
		Approx: approx(0.8, 0.8, 0.8), GroupOn: "grade", Budget: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.AchievedRecallBound <= 0 || res.Stats.AchievedRecallBound > 1 {
		t.Fatalf("achieved recall bound %v", res.Stats.AchievedRecallBound)
	}
	if res.Stats.Cost > 4000*1.1 {
		t.Fatalf("cost %v blew the budget", res.Stats.Cost)
	}
}

// TestBudgetHoldsOnWarmCache: the budget left for execution must subtract
// what sampling cost as Stats bills it — every sampled row retrieved (o_r),
// only charged calls evaluated (o_e). After an exact query warmed the cache
// the sampled rows are retrieved but never evaluated; billing them o_r+o_e
// per charged call (0 calls) overstated the remaining budget, and the query
// overran it (Stats.Cost 1567 against BUDGET 1500).
func TestBudgetHoldsOnWarmCache(t *testing.T) {
	e, _, _ := newTestEngine(t, 3000)
	if _, err := e.ExecuteContext(context.Background(), Query{
		Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true,
	}); err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecuteContext(context.Background(), Query{
		Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true,
		Approx: approx(0.8, 0.8, 0.8), GroupOn: "grade", Budget: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Sampled == 0 || res.Stats.Evaluations != 0 {
		t.Fatalf("scenario needs a cache-served sample: %+v", res.Stats)
	}
	if res.Stats.Cost > 1500 {
		t.Fatalf("Stats.Cost %v overran BUDGET 1500: %+v", res.Stats.Cost, res.Stats)
	}
}

func TestExecuteErrors(t *testing.T) {
	e, _, _ := newTestEngine(t, 90)
	cases := []Query{
		{},
		{Table: "nope", UDFName: "good_credit", UDFArg: "id", Want: true},
		{Table: "loans", UDFName: "nope", UDFArg: "id", Want: true},
		{Table: "loans", UDFName: "good_credit", UDFArg: "nope", Want: true},
		{Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true, Columns: []string{"missing"}},
		{Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true, Budget: 10},
		{Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true,
			Approx: &Approx{Precision: 2, Recall: 0.5, Probability: 0.5}},
		{Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true,
			Approx: approx(0.8, 0.8, 0.8), GroupOn: "missing"},
	}
	for i, q := range cases {
		if _, err := e.ExecuteContext(context.Background(), q); err == nil {
			t.Fatalf("case %d accepted: %+v", i, q)
		}
	}
}

func TestRegisterErrors(t *testing.T) {
	e := New(1)
	tbl, _ := buildLoanTable(t, 9, 1)
	if err := e.RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterTable(tbl); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if err := e.RegisterUDF(UDF{Name: "", Body: func(table.Value) bool { return true }}); err == nil {
		t.Fatal("empty UDF name accepted")
	}
	if err := e.RegisterUDF(UDF{Name: "f"}); err == nil {
		t.Fatal("nil UDF body accepted")
	}
	if err := e.RegisterUDF(UDF{Name: "f", Body: func(table.Value) bool { return true }, Cost: -1}); err == nil {
		t.Fatal("negative UDF cost accepted")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(UDF{Name: "f", Body: func(table.Value) bool { return true }}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup("g"); err == nil {
		t.Fatal("unknown UDF found")
	}
	if names := r.Names(); len(names) != 1 || names[0] != "f" {
		t.Fatalf("names %v", names)
	}
}

func TestUDFCostOverride(t *testing.T) {
	e, _, _ := newTestEngine(t, 90)
	if err := e.RegisterUDF(UDF{
		Name: "pricey",
		Body: func(v table.Value) bool { return true },
		Cost: 50,
	}); err != nil {
		t.Fatal(err)
	}
	for udf, want := range map[string]float64{"pricey": 50, "good_credit": core.DefaultCost.Evaluate} {
		st, err := e.bindStatement(Query{Table: "loans", UDFName: udf, UDFArg: "id"})
		if err != nil {
			t.Fatal(err)
		}
		if st.cost.Evaluate != want || st.preds[0].cost != want {
			t.Fatalf("%s: bound o_e %v / %v, want %v", udf, st.cost.Evaluate, st.preds[0].cost, want)
		}
	}
}

func TestMaterialize(t *testing.T) {
	e, _, _ := newTestEngine(t, 300)
	q := Query{
		Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true,
		Columns: []string{"id", "grade"},
	}
	res, err := e.ExecuteContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Materialize(q, res)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != len(res.Rows) {
		t.Fatalf("materialized %d rows, want %d", out.NumRows(), len(res.Rows))
	}
	if out.Schema().Len() != 2 || out.Schema().Col(1).Name != "grade" {
		t.Fatalf("projection schema %s", out.Schema())
	}
}

// TestRendererMatchesMaterialize holds the one cell renderer to the typed
// reference: for every table.Type (int, float and string columns), under
// SELECT *, an explicit "*" and a reordered projection, Renderer's names and
// cells equal Materialize's schema and CellString, row for row.
func TestRendererMatchesMaterialize(t *testing.T) {
	e, _, _ := newTestEngine(t, 300)
	for _, cols := range [][]string{nil, {"*"}, {"income", "purpose", "id"}, {"grade"}} {
		q := Query{Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true, Columns: cols}
		res, err := e.ExecuteContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Fatal("empty result; comparison is vacuous")
		}
		want, err := e.Materialize(q, res)
		if err != nil {
			t.Fatal(err)
		}
		names, render, err := e.Renderer(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(names, want.Schema().Names()) {
			t.Fatalf("columns %v: renderer names %v, materialized %v", cols, names, want.Schema().Names())
		}
		types := map[table.Type]bool{}
		for j := range names {
			types[want.Schema().Col(j).Type] = true
		}
		if cols == nil && len(types) != 3 {
			t.Fatalf("SELECT * covers column types %v, want int, float and string", types)
		}
		for i, row := range res.Rows {
			cells := render(row)
			if len(cells) != len(names) {
				t.Fatalf("columns %v row %d: %d cells for %d columns", cols, row, len(cells), len(names))
			}
			for j, cell := range cells {
				if ref := want.CellString(i, j); cell != ref {
					t.Fatalf("columns %v row %d col %s: rendered %q, materialized %q", cols, row, names[j], cell, ref)
				}
			}
		}
	}
	if _, _, err := e.Renderer(Query{Table: "loans", Columns: []string{"nosuch"}}); err == nil {
		t.Fatal("renderer accepted an unknown column")
	}
}

func TestExecuteSelectJoin(t *testing.T) {
	e, truth, _ := newTestEngine(t, 1500)
	// Orders table: grade-A customers appear many times.
	schema := table.MustSchema(
		table.ColumnDef{Name: "loan_id", Type: table.Int},
	)
	orders := table.New("orders", schema)
	rng := stats.NewRNG(5)
	for i := 0; i < 4000; i++ {
		if err := orders.AppendRow(int64(rng.IntN(1500))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RegisterTable(orders); err != nil {
		t.Fatal(err)
	}
	q := Query{
		Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true,
		Approx: approx(0.7, 0.7, 0.8), GroupOn: "grade",
		Join: &Join{Table: "orders", LeftKey: "id", RightKey: "loan_id"},
	}
	res, err := e.ExecuteContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("join query returned nothing")
	}
	if res.Stats.Evaluations >= 1500 {
		t.Fatalf("no savings: %d evaluations", res.Stats.Evaluations)
	}
	correct := 0
	for _, row := range res.Rows {
		if truth[int64(row)] {
			correct++
		}
	}
	if prec := float64(correct) / float64(len(res.Rows)); prec < 0.55 {
		t.Fatalf("join precision %v", prec)
	}
}

func TestExecuteSelectJoinErrors(t *testing.T) {
	e, _, _ := newTestEngine(t, 90)
	base := Query{
		Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true,
		Approx: approx(0.8, 0.8, 0.8), GroupOn: "grade",
	}
	with := func(j Join, mutate func(*Query)) Query {
		q := base
		q.Join = &j
		if mutate != nil {
			mutate(&q)
		}
		return q
	}
	self := Join{Table: "loans", LeftKey: "id", RightKey: "id"}
	cases := []Query{
		{Join: &Join{}},
		with(Join{Table: "missing", LeftKey: "id", RightKey: "x"}, nil),
		with(self, func(q *Query) { q.Approx = nil }),
		with(self, func(q *Query) { q.GroupOn = "" }),
		with(Join{Table: "loans", LeftKey: "missing", RightKey: "id"}, nil),
		with(Join{Table: "loans", LeftKey: "id", RightKey: "missing"}, nil),
	}
	for i, q := range cases {
		if _, err := e.ExecuteContext(context.Background(), q); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestJoinMultiplicities(t *testing.T) {
	schema := table.MustSchema(table.ColumnDef{Name: "k", Type: table.String})
	left, right := table.New("l", schema), table.New("r", schema)
	for _, k := range []string{"b", "x", "a"} {
		if err := left.AppendRow(k); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{"a", "a", "b", "unmatched"} {
		if err := right.AppendRow(k); err != nil {
			t.Fatal(err)
		}
	}
	weight := joinWeights(left.ColumnByName("k"), right.ColumnByName("k"))
	if got := []int{weight(0), weight(1), weight(2)}; !reflect.DeepEqual(got, []int{1, 0, 2}) {
		t.Fatalf("weights %v, want [1 0 2]", got)
	}
}

func TestVirtualColumnDeterministic(t *testing.T) {
	run := func() []int {
		tbl, truth := buildLoanTable(t, 1500, 42)
		e := New(9)
		if err := e.RegisterTable(tbl); err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterUDF(UDF{Name: "f", Body: func(v table.Value) bool { return truth[v.(int64)] }}); err != nil {
			t.Fatal(err)
		}
		res, err := e.ExecuteContext(context.Background(), Query{
			Table: "loans", UDFName: "f", UDFArg: "id", Want: true,
			Approx: approx(0.8, 0.8, 0.8), GroupOn: VirtualColumn,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("same-seed virtual-column runs returned %d vs %d rows", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed virtual-column runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestEngineDeterministicAcrossSeeds(t *testing.T) {
	run := func(seed uint64) int {
		tbl, truth := buildLoanTable(t, 1200, 42)
		e := New(seed)
		if err := e.RegisterTable(tbl); err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterUDF(UDF{Name: "f", Body: func(v table.Value) bool { return truth[v.(int64)] }}); err != nil {
			t.Fatal(err)
		}
		res, err := e.ExecuteContext(context.Background(), Query{
			Table: "loans", UDFName: "f", UDFArg: "id", Want: true,
			Approx: approx(0.8, 0.8, 0.8), GroupOn: "grade",
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Evaluations
	}
	if run(3) != run(3) {
		t.Fatal("same seed produced different executions")
	}
}

func TestQueryValidate(t *testing.T) {
	good := Query{Table: "t", UDFName: "f", UDFArg: "c", Want: true}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	msg := func(q Query) string {
		err := q.Validate()
		if err == nil {
			return ""
		}
		return err.Error()
	}
	if msg(Query{UDFName: "f", UDFArg: "c"}) == "" {
		t.Fatal("missing table accepted")
	}
	if msg(Query{Table: "t"}) == "" {
		t.Fatal("missing UDF accepted")
	}
	if msg(Query{Table: "t", UDFName: "f", UDFArg: "c", Budget: -1}) == "" {
		t.Fatal("negative budget accepted")
	}
	// Shapes no plan covers are rejected statically too, so parsing,
	// EXPLAIN and execution refuse them with the same error.
	grouped := good
	grouped.Approx, grouped.GroupOn = approx(0.8, 0.8, 0.8), "g"
	shape := func(mutate func(*Query)) Query {
		q := grouped
		q.Join = &Join{Table: "u", LeftKey: "c", RightKey: "c"}
		mutate(&q)
		return q
	}
	and := []Conjunct{{UDFName: "g", UDFArg: "c", Want: true}}
	for _, c := range []struct {
		q    Query
		want string
	}{
		{shape(func(q *Query) {}), ""},
		{shape(func(q *Query) { q.Budget = 50 }), "BUDGET is not supported with JOIN"},
		{shape(func(q *Query) { q.Join = nil; q.Conjuncts = and; q.Budget = 50 }), "BUDGET is not supported with AND conjunctions"},
		{shape(func(q *Query) { q.Approx = nil }), "select-join requires WITH"},
		{shape(func(q *Query) { q.GroupOn = "" }), "select-join requires an explicit GROUP ON"},
		{shape(func(q *Query) { q.GroupOn = VirtualColumn }), "select-join requires an explicit GROUP ON"},
		{shape(func(q *Query) { q.Conjuncts = and }), "select-join does not support AND"},
		{shape(func(q *Query) { q.Join = nil; q.Conjuncts = and; q.GroupOn = "" }), "AND conjunctions require an explicit GROUP ON"},
		{shape(func(q *Query) { q.Join = nil; q.Conjuncts = append(and, and...); q.GroupOn = VirtualColumn }), "do not support the virtual column"},
	} {
		if got := msg(c.q); (c.want == "") != (got == "") || !strings.Contains(got, c.want) {
			t.Fatalf("Validate(%+v) = %q, want an error containing %q", c.q, got, c.want)
		}
	}
}

func TestExecuteConjunction(t *testing.T) {
	e, truth, _ := newTestEngine(t, 3000)
	// Second predicate: high income (correlated with nothing in grade, a
	// pure per-row property).
	incomes, err := func() (*table.FloatColumn, error) {
		tbl, err := e.Table("loans")
		if err != nil {
			return nil, err
		}
		return tbl.FloatColumn("income")
	}()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterUDF(UDF{Name: "rich", Body: func(v table.Value) bool {
		return v.(float64) > 80000
	}}); err != nil {
		t.Fatal(err)
	}
	q := Query{
		Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true,
		Conjuncts: []Conjunct{{UDFName: "rich", UDFArg: "income", Want: true}},
		Approx:    approx(0.75, 0.75, 0.8), GroupOn: "grade",
	}
	res, err := e.ExecuteContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Evaluations >= 2*3000 {
		t.Fatalf("no savings: %d evaluations", res.Stats.Evaluations)
	}
	// Exact conjunction for reference.
	qExact := q
	qExact.Approx = nil
	qExact.GroupOn = ""
	exact, err := e.ExecuteContext(context.Background(), qExact)
	if err != nil {
		t.Fatal(err)
	}
	wantSet := map[int]bool{}
	for _, r := range exact.Rows {
		wantSet[r] = true
	}
	correct := 0
	for _, r := range res.Rows {
		if wantSet[r] {
			correct++
		}
	}
	if len(res.Rows) == 0 {
		t.Fatal("empty conjunction output")
	}
	prec := float64(correct) / float64(len(res.Rows))
	recall := float64(correct) / float64(len(exact.Rows))
	if prec < 0.6 || recall < 0.6 {
		t.Fatalf("conjunction metrics: precision %v recall %v", prec, recall)
	}
	_ = truth
	_ = incomes
}

func TestExecuteConjunctionExactShortCircuits(t *testing.T) {
	e, truth, calls := newTestEngine(t, 300)
	var calls2 atomic.Int64
	if err := e.RegisterUDF(UDF{Name: "second", Body: func(v table.Value) bool {
		calls2.Add(1)
		return v.(int64)%2 == 0
	}}); err != nil {
		t.Fatal(err)
	}
	q := Query{
		Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true,
		Conjuncts: []Conjunct{{UDFName: "second", UDFArg: "id", Want: true}},
	}
	res, err := e.ExecuteContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	nTrue := 0
	for _, v := range truth {
		if v {
			nTrue++
		}
	}
	// f2 must only have been evaluated on f1 survivors.
	if calls2.Load() != int64(nTrue) {
		t.Fatalf("second predicate called %d times, want %d", calls2.Load(), nTrue)
	}
	if calls.Load() != 300 {
		t.Fatalf("first predicate called %d times, want 300", calls.Load())
	}
	for _, r := range res.Rows {
		if !truth[int64(r)] || r%2 != 0 {
			t.Fatalf("row %d should not match conjunction", r)
		}
	}
}

func TestExecuteConjunctionValidation(t *testing.T) {
	e, _, _ := newTestEngine(t, 90)
	base := Query{
		Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true,
		Conjuncts: []Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: true}},
		Approx:    approx(0.8, 0.8, 0.8),
	}
	if _, err := e.ExecuteContext(context.Background(), base); err == nil {
		t.Fatal("conjunction without GROUP ON accepted")
	}
	bad := base
	bad.Conjuncts = []Conjunct{{}}
	if _, err := e.ExecuteContext(context.Background(), bad); err == nil {
		t.Fatal("empty conjunct accepted")
	}
	bad = base
	bad.GroupOn = "grade"
	bad.Conjuncts = []Conjunct{{UDFName: "missing", UDFArg: "id", Want: true}}
	if _, err := e.ExecuteContext(context.Background(), bad); err == nil {
		t.Fatal("unknown second UDF accepted")
	}
	bad = base
	bad.GroupOn = "grade"
	bad.Budget = 100
	if _, err := e.ExecuteContext(context.Background(), bad); err == nil {
		t.Fatal("budget + conjunction accepted")
	}
}

// TestUDFPanicSurfacesAsError: a panicking body becomes the statement's
// typed error instead of crashing the caller. Seed it catches: an untyped
// error from rowInvoker's panic capture.
func TestUDFPanicSurfacesAsError(t *testing.T) {
	e, truth, _ := newTestEngine(t, 300)
	if err := e.RegisterUDF(UDF{Name: "explodes", Body: func(v table.Value) bool {
		if v.(int64) == 7 {
			panic("boom")
		}
		return truth[v.(int64)]
	}}); err != nil {
		t.Fatal(err)
	}
	_, err := e.ExecuteContext(context.Background(), Query{Table: "loans", UDFName: "explodes", UDFArg: "id", Want: true})
	if err == nil {
		t.Fatal("panicking UDF did not surface an error")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("error %v does not mention the panic", err)
	}
	// The engine must survive: a subsequent healthy query still works.
	res, err := e.ExecuteContext(context.Background(), Query{Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("engine broken after UDF panic")
	}
}

func TestUDFPanicInApproximateQuery(t *testing.T) {
	e, _, _ := newTestEngine(t, 900)
	if err := e.RegisterUDF(UDF{Name: "flaky", Body: func(v table.Value) bool {
		panic("always")
	}}); err != nil {
		t.Fatal(err)
	}
	_, err := e.ExecuteContext(context.Background(), Query{
		Table: "loans", UDFName: "flaky", UDFArg: "id", Want: true,
		Approx: approx(0.8, 0.8, 0.8), GroupOn: "grade",
	})
	if err == nil {
		t.Fatal("panicking UDF in approximate query did not error")
	}
}

func TestCheapFilterPushdownExact(t *testing.T) {
	e, truth, calls := newTestEngine(t, 900)
	res, err := e.ExecuteContext(context.Background(), Query{
		Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true,
		Filters: []Filter{{Column: "grade", Value: "A"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only grade-A rows (ids ≡ 0 mod 3, 300 of them) are evaluated.
	if calls.Load() != 300 {
		t.Fatalf("UDF called %d times, want 300", calls.Load())
	}
	for _, r := range res.Rows {
		if r%3 != 0 {
			t.Fatalf("non-A row %d in output", r)
		}
		if !truth[int64(r)] {
			t.Fatalf("incorrect row %d in output", r)
		}
	}
	if res.Stats.Retrievals != 300 {
		t.Fatalf("retrievals %d, want 300", res.Stats.Retrievals)
	}
}

func TestCheapFilterPushdownApprox(t *testing.T) {
	e, _, _ := newTestEngine(t, 3000)
	res, err := e.ExecuteContext(context.Background(), Query{
		Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true,
		Approx:  approx(0.8, 0.8, 0.8),
		Filters: []Filter{{Column: "purpose", Value: "car"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Table("loans")
	if err != nil {
		t.Fatal(err)
	}
	purpose, err := tbl.StringColumn("purpose")
	if err != nil {
		t.Fatal(err)
	}
	carRows := 0
	for i := 0; i < tbl.NumRows(); i++ {
		if purpose.At(i) == "car" {
			carRows++
		}
	}
	for _, r := range res.Rows {
		if purpose.At(r) != "car" {
			t.Fatalf("non-car row %d in output", r)
		}
	}
	if res.Stats.Evaluations >= carRows {
		t.Fatalf("no savings within the filtered subset: %d evals of %d rows",
			res.Stats.Evaluations, carRows)
	}
}

func TestCheapFilterErrors(t *testing.T) {
	e, _, _ := newTestEngine(t, 90)
	_, err := e.ExecuteContext(context.Background(), Query{
		Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true,
		Filters: []Filter{{Column: "missing", Value: "x"}},
	})
	if err == nil {
		t.Fatal("missing filter column accepted")
	}
}

func TestCheapFilterEmptyResult(t *testing.T) {
	e, _, _ := newTestEngine(t, 90)
	res, err := e.ExecuteContext(context.Background(), Query{
		Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true,
		Filters: []Filter{{Column: "grade", Value: "Z"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 || res.Stats.Evaluations != 0 {
		t.Fatalf("empty filter produced %d rows, %d evals", len(res.Rows), res.Stats.Evaluations)
	}
}
