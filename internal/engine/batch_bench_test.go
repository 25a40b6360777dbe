package engine

import (
	"context"
	"testing"

	"repro/internal/table"
)

// benchFilterTable builds an n-row table with a 3-valued grade column, so
// a grade filter keeps one third of the rows.
func benchFilterTable(b *testing.B, n int) *table.Table {
	b.Helper()
	schema := table.MustSchema(
		table.ColumnDef{Name: "id", Type: table.Int},
		table.ColumnDef{Name: "grade", Type: table.String},
	)
	tbl := table.New("loans", schema)
	grades := []string{"A", "B", "C"}
	for i := 0; i < n; i++ {
		if err := tbl.AppendRow(int64(i), grades[i%3]); err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

// BenchmarkBatchScanFilter1M drains the fused batch scan over a 1M-row
// table with one cheap filter. The interesting metric is B/op: the scan
// allocates proportionally to the BATCH (one reused buffer), not to the
// table or the survivor count.
func BenchmarkBatchScanFilter1M(b *testing.B) {
	const n = 1 << 20
	e := New(1)
	if err := e.RegisterTable(benchFilterTable(b, n)); err != nil {
		b.Fatal(err)
	}
	if err := e.RegisterUDF(UDF{Name: "f", Body: pure(func(table.Value) bool { return true })}); err != nil {
		b.Fatal(err)
	}
	st, err := e.bindStatement(Query{Table: "loans", Predicates: []Conjunct{{UDFName: "f", UDFArg: "id"}},
		Filters: []Filter{{Column: "grade", Value: "B"}}})
	if err != nil {
		b.Fatal(err)
	}
	want := 0
	for i := 0; i < n; i++ {
		if i%3 == 1 {
			want++
		}
	}

	b.Run("fused-batch", func(b *testing.B) {
		b.ReportAllocs()
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			sc := &scanOp{e: e, st: st}
			if err := sc.Open(ctx); err != nil {
				b.Fatal(err)
			}
			got := 0
			for {
				batch, err := sc.Next(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if batch == nil {
					break
				}
				got += len(batch.Rows)
			}
			if got != want {
				b.Fatalf("%d survivors, want %d", got, want)
			}
		}
	})
}
