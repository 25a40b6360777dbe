package engine

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/stats"
	"repro/internal/table"
)

func filterTestTable(t *testing.T) *table.Table {
	t.Helper()
	tbl := table.New("t", table.MustSchema(
		table.ColumnDef{Name: "n", Type: table.Int},
		table.ColumnDef{Name: "x", Type: table.Float},
		table.ColumnDef{Name: "s", Type: table.String},
	))
	rows := []struct {
		n int64
		x float64
		s string
	}{
		{42, 1.5, "a"},
		{7, 42, "b"},
		{42, 100, "a"},
		{-3, 0.1, "c"},
		{0, math.Copysign(0, -1), "z0"}, // row 4: negative zero
		{1, 0, "p0"},                    // row 5: positive zero
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r.n, r.x, r.s); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// scanRows binds a statement carrying the filters and drains its scan in
// batches: the rows the cheap predicates keep, through the code every query
// runs.
func scanRows(e *Engine, filters []Filter) ([]int, error) {
	st, err := e.bindStatement(Query{Table: "t", Predicates: []Conjunct{{UDFName: "f", UDFArg: "n"}}, Filters: filters})
	if err != nil {
		return nil, err
	}
	universe, n := st.scanRows()
	var b batcher
	rows := []int{}
	for batch := b.next(universe, n, e.batchSize()); batch != nil; batch = b.next(universe, n, e.batchSize()) {
		rows = append(rows, batch...)
	}
	return rows, nil
}

func TestTypedFilterSemantics(t *testing.T) {
	e := New(1)
	e.BatchSize = 2 // several batches even on this 6-row table
	if err := e.RegisterTable(filterTestTable(t)); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterUDF(UDF{Name: "f", Body: pure(func(table.Value) bool { return true })}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		filters []Filter
		want    []int
	}{
		// Typed int comparison.
		{[]Filter{{Column: "n", Value: "42"}}, []int{0, 2}},
		{[]Filter{{Column: "n", Value: "-3"}}, []int{3}},
		// Non-canonical renderings never match (same as the old
		// render-and-compare semantics).
		{[]Filter{{Column: "n", Value: "042"}}, []int{}},
		{[]Filter{{Column: "n", Value: "+42"}}, []int{}},
		{[]Filter{{Column: "n", Value: "4.2"}}, []int{}},
		{[]Filter{{Column: "n", Value: "zap"}}, []int{}},
		// Typed float comparison; FloatColumn renders 42 as "42".
		{[]Filter{{Column: "x", Value: "1.5"}}, []int{0}},
		{[]Filter{{Column: "x", Value: "42"}}, []int{1}},
		{[]Filter{{Column: "x", Value: "1e2"}}, []int{}},
		{[]Filter{{Column: "x", Value: "0.1"}}, []int{3}},
		// Signed zeros render differently ("0" vs "-0") and must not
		// conflate under the typed comparison.
		{[]Filter{{Column: "x", Value: "0"}}, []int{5}},
		{[]Filter{{Column: "x", Value: "-0"}}, []int{4}},
		// Dictionary-code string comparison.
		{[]Filter{{Column: "s", Value: "a"}}, []int{0, 2}},
		{[]Filter{{Column: "s", Value: "z"}}, []int{}},
		// Conjunction of filters.
		{[]Filter{{Column: "n", Value: "42"}, {Column: "s", Value: "a"}, {Column: "x", Value: "100"}}, []int{2}},
	}
	for _, c := range cases {
		got, err := scanRows(e, c.filters)
		if err != nil {
			t.Fatalf("%v: %v", c.filters, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("filters %v matched %v, want %v", c.filters, got, c.want)
		}
	}
	// No filters means every row.
	got, err := scanRows(e, nil)
	if err != nil || !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("no filters: %v, %v", got, err)
	}
	// An unknown column is refused when the statement binds.
	if _, err := scanRows(e, []Filter{{Column: "nope", Value: "1"}}); err == nil {
		t.Fatal("unknown filter column accepted")
	}
}

// TestFilterBindingMetamorphic holds the bound cheap filters to two
// relations on exact queries over the loans fixture, whatever the filters:
// filtering then querying equals querying then filtering (the oracle
// re-checks each result row against the cell's canonical rendering, not the
// compiled predicate), and the "= 0" answer is the complement of the "= 1"
// answer within the filtered universe.
func TestFilterBindingMetamorphic(t *testing.T) {
	const n = 600
	e, _, _ := newTestEngine(t, n)
	tbl, err := e.Table("loans")
	if err != nil {
		t.Fatal(err)
	}
	exact := func(want bool, filters []Filter) []int {
		t.Helper()
		res, err := e.ExecuteContext(context.Background(),
			Query{Table: "loans", Predicates: []Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: want}}, Filters: filters})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows
	}
	// keep is query-then-filter: the rows of an unfiltered answer whose cells
	// render as the filters' literals.
	keep := func(rows []int, filters []Filter) []int {
		out := []int{}
		for _, r := range rows {
			ok := true
			for _, f := range filters {
				ok = ok && tbl.ColumnByName(f.Column).StringAt(r) == f.Value
			}
			if ok {
				out = append(out, r)
			}
		}
		return out
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	yes, no := exact(true, nil), exact(false, nil)
	for _, filters := range [][]Filter{
		{{Column: "grade", Value: "A"}},
		{{Column: "purpose", Value: "car"}},
		{{Column: "grade", Value: "C"}, {Column: "purpose", Value: "home"}},
		{{Column: "id", Value: "17"}},
		{{Column: "id", Value: "017"}},                                 // not a canonical rendering: matches nothing
		{{Column: "grade", Value: "A"}, {Column: "grade", Value: "B"}}, // contradictory
	} {
		fYes, fNo := exact(true, filters), exact(false, filters)
		if want := keep(yes, filters); !reflect.DeepEqual(fYes, want) {
			t.Errorf("%v: filter-then-query %v, query-then-filter %v", filters, fYes, want)
		}
		if want := keep(no, filters); !reflect.DeepEqual(fNo, want) {
			t.Errorf("%v: = 0: filter-then-query %v, query-then-filter %v", filters, fNo, want)
		}
		// Complement: the two answers partition the filtered universe.
		both := append(append([]int{}, fYes...), fNo...)
		sort.Ints(both)
		if want := keep(all, filters); !reflect.DeepEqual(both, want) {
			t.Errorf("%v: = 1 ∪ = 0 is %v, the filtered universe is %v", filters, both, want)
		}
	}
}

// TestIndexScanMatchesRendering is the model test of the posting-index
// scan: over random tables and random filter sets, the universe the scan
// emits is exactly the rows whose cells StringAt renders as every filter's
// literal — the filter semantics by definition, with no typed comparison
// and no index in the oracle. The literals mix renderings of real cells
// with ones no cell renders as, over a float column holding several NaN
// payloads, both zeros and the infinities.
func TestIndexScanMatchesRendering(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001),
		math.Inf(1), math.Inf(-1), 1.5, 0.1, 42, 1e21}
	strs := []string{"", "a", "b", "NaN", "0", "-0"}
	tricky := []string{"NaN", "-0", "0", "+Inf", "-Inf", "Inf", "nan", "042", "+7", "1e2", "4.20", "", "a ", "zz"}
	cols := []string{"n", "x", "s"}
	rng := stats.NewRNG(15)
	for trial := 0; trial < 200; trial++ {
		tbl := table.New("t", table.MustSchema(
			table.ColumnDef{Name: "n", Type: table.Int},
			table.ColumnDef{Name: "x", Type: table.Float},
			table.ColumnDef{Name: "s", Type: table.String},
		))
		for r := rng.IntN(300); r > 0; r-- {
			if err := tbl.AppendRow(int64(rng.IntN(7)-3), floats[rng.IntN(len(floats))], strs[rng.IntN(len(strs))]); err != nil {
				t.Fatal(err)
			}
		}
		e := New(1)
		e.BatchSize = 1 + rng.IntN(64)
		if err := e.RegisterTable(tbl); err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterUDF(UDF{Name: "f", Body: pure(func(table.Value) bool { return true })}); err != nil {
			t.Fatal(err)
		}
		// Several statements per table, so later ones read cached lists.
		for stmt := 0; stmt < 5; stmt++ {
			filters := make([]Filter, 1+rng.IntN(3))
			for i := range filters {
				col := cols[rng.IntN(len(cols))]
				lit := tricky[rng.IntN(len(tricky))]
				if tbl.NumRows() > 0 && rng.Bernoulli(0.7) {
					lit = tbl.ColumnByName(col).StringAt(rng.IntN(tbl.NumRows()))
				}
				filters[i] = Filter{Column: col, Value: lit}
			}
			want := []int{}
			for r := 0; r < tbl.NumRows(); r++ {
				keep := true
				for _, f := range filters {
					keep = keep && tbl.ColumnByName(f.Column).StringAt(r) == f.Value
				}
				if keep {
					want = append(want, r)
				}
			}
			got, err := scanRows(e, filters)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, %d rows, filters %q: scan %v, rendering %v", trial, tbl.NumRows(), filters, got, want)
			}
		}
	}
}
