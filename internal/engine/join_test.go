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
		Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true,
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
		Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true,
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
