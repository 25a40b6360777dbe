package engine

import (
	"context"
	"testing"

	"repro/internal/table"
)

// ordersFor builds an orders table whose loan_id values are exactly ids.
func ordersFor(t *testing.T, e *Engine, ids []int64) {
	t.Helper()
	schema := table.MustSchema(table.ColumnDef{Name: "loan_id", Type: table.Int})
	orders := table.New("orders", schema)
	for _, id := range ids {
		if err := orders.AppendRow(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RegisterTable(orders); err != nil {
		t.Fatal(err)
	}
}

// TestSelectJoinSkipsZeroWeightSubgroups is the regression test for the
// w0-subgroup bug: tuples whose join key matches nothing can never appear
// in the join result, so the sampler must not pay UDF calls for them.
func TestSelectJoinSkipsZeroWeightSubgroups(t *testing.T) {
	const n, joined = 1500, 300
	e, _, calls := newTestEngine(t, n)
	// Only ids < joined appear in orders (each a few times); the other
	// n−joined loans have join multiplicity 0.
	var ids []int64
	for i := 0; i < joined; i++ {
		for k := 0; k < 1+i%3; k++ {
			ids = append(ids, int64(i))
		}
	}
	ordersFor(t, e, ids)
	res, err := e.ExecuteContext(context.Background(), Query{
		Table: "loans", Predicates: []Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: true}},
		Approx: approx(0.7, 0.7, 0.8), GroupOn: "grade",
		Join: &Join{Table: "orders", LeftKey: "id", RightKey: "loan_id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row >= joined {
			t.Fatalf("row %d has join multiplicity 0 yet was returned", row)
		}
	}
	// Stats assertion: every retrieval (sampling included) and every UDF
	// call must come from the joined tuples — zero-weight subgroups are
	// dropped before the sampler ever tops them up.
	if res.Stats.Retrievals > joined {
		t.Fatalf("%d retrievals for %d joinable tuples: paid for unreturnable rows", res.Stats.Retrievals, joined)
	}
	if got := calls.Load(); got > joined {
		t.Fatalf("%d UDF calls for %d joinable tuples", got, joined)
	}
	if res.Stats.Sampled <= 0 {
		t.Fatalf("stats lost the sampling count: %+v", res.Stats)
	}
}

// TestSelectJoinAllZeroWeight: when no tuple joins, the result is empty and
// free — no sampling, no evaluation, no planning failure.
func TestSelectJoinAllZeroWeight(t *testing.T) {
	e, _, calls := newTestEngine(t, 300)
	// Orders reference ids far outside the loans table.
	ordersFor(t, e, []int64{5000, 5001, 5002})
	res, err := e.ExecuteContext(context.Background(), Query{
		Table: "loans", Predicates: []Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: true}},
		Approx: approx(0.7, 0.7, 0.8), GroupOn: "grade",
		Join: &Join{Table: "orders", LeftKey: "id", RightKey: "loan_id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("empty join produced %d rows", len(res.Rows))
	}
	if calls.Load() != 0 || res.Stats.Evaluations != 0 || res.Stats.Retrievals != 0 {
		t.Fatalf("empty join paid work: calls=%d stats=%+v", calls.Load(), res.Stats)
	}
}

// TestSelectJoinMatchesParent holds joinWeights to pinned answers (see
// pinned): keys match by rendered value (an int 7 joins a float 7), right
// keys that match nothing change nothing, and a filtered left side joins
// only its survivors, so the int and float cases share one pin. A change to
// the join planner (core.PlanSelectJoin) or to the draws moves every pin;
// they were re-captured when the draws became keyed per row.
func TestSelectJoinMatchesParent(t *testing.T) {
	const n = 1500
	join := func(left, right string) *Join { return &Join{Table: "orders", LeftKey: left, RightKey: right} }
	base := Query{
		Table: "loans", Predicates: []Conjunct{{UDFName: "good_credit", UDFArg: "id", Want: true}},
		Approx: approx(0.7, 0.7, 0.8), GroupOn: "grade",
	}
	intKeys := pinned{549, 0x6f47e5aa58af15eb, Stats{
		Evaluations: 267, Retrievals: 643, Sampled: 176, Cost: 1444, ChosenColumn: "grade", CacheMisses: 267,
	}}
	cases := []struct {
		name    string
		keyType table.Type
		key     func(i, k int) table.Value // k-th order of loan i
		extra   []table.Value              // right keys no loan carries
		join    *Join
		filters []Filter
		want    pinned
	}{
		{name: "unmatched keys both sides", keyType: table.Int,
			key:   func(i, _ int) table.Value { return int64(i) },
			extra: []table.Value{int64(5000), int64(5000), int64(-1)},
			join:  join("id", "ref"), want: intKeys},
		{name: "int joins float", keyType: table.Float,
			key:   func(i, _ int) table.Value { return float64(i) },
			extra: []table.Value{2.5, 1e21},
			join:  join("id", "ref"), want: intKeys}, // the same join as above, so the same answer
		{name: "string keys", keyType: table.String,
			key:   func(i, _ int) table.Value { return []string{"car", "home", "debt"}[i%3] },
			extra: []table.Value{"boat"},
			join:  join("purpose", "ref"),
			want: pinned{335, 0xc4d9da76237f823b, Stats{
				Evaluations: 148, Retrievals: 409, Sampled: 148, Cost: 853, ChosenColumn: "grade", CacheMisses: 148,
			}}},
		{name: "filtered left", keyType: table.Int,
			key:     func(i, _ int) table.Value { return int64(i) },
			join:    join("id", "ref"),
			filters: []Filter{{Column: "purpose", Value: "car"}},
			want: pinned{147, 0x29f29f43fe26a02f, Stats{
				Evaluations: 91, Retrievals: 176, Sampled: 73, Cost: 449, ChosenColumn: "grade", CacheMisses: 91,
			}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, _, _ := newTestEngine(t, n)
			orders := table.New("orders", table.MustSchema(table.ColumnDef{Name: "ref", Type: tc.keyType}))
			// Two loans in three have 1–3 orders; the rest join nothing.
			for i := 0; i < n; i++ {
				for k := 0; i%3 != 2 && k < 1+i%3+i%2; k++ {
					if err := orders.AppendRow(tc.key(i, k)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, v := range tc.extra {
				if err := orders.AppendRow(v); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.RegisterTable(orders); err != nil {
				t.Fatal(err)
			}
			q := base
			q.Join, q.Filters = tc.join, tc.filters
			res, err := e.ExecuteContext(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			tc.want.check(t, tc.name, res)
		})
	}
}
